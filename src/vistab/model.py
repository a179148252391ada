"""Multi-view adaptation network, replacement head, and the composed model.

A tabular row x in R^M is mapped by n independent feed-forward projections
to n pseudo-patch tokens in R^D. The token sequence [CLS, v_1..v_n] runs
through a (possibly sliced, possibly frozen) pre-trained encoder and the
CLS output row feeds a small classification head. Dropping the encoder
entirely (``bundle=None``) degenerates to adapter -> mean pool -> head,
which is the no-encoder ablation arm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import encoder as enc
from . import tensor as T
from . import weights as wio
from .encoder import EncoderBundle, EncoderConfig, LayerRange
from .errors import CapacityError, ContractError, DimensionError
from .tensor import Tensor

FREEZE_MODES = ("frozen", "fine_tune", "fully_trained")


@dataclass(frozen=True)
class AdapterConfig:
    input_dim: int
    n_views: int
    depth: int = 1
    hidden_dim: int | None = None
    out_dim: int = 32
    shared: bool = False  # one projection reused for every view (non-default)

    def __post_init__(self):
        if self.n_views < 1 or self.depth < 1:
            raise ContractError("adapter needs n_views >= 1 and depth >= 1")

    @property
    def hidden(self) -> int:
        return self.hidden_dim if self.hidden_dim is not None else self.out_dim

    def layer_widths(self) -> list[tuple[int, int]]:
        dims = [self.input_dim] + [self.hidden] * (self.depth - 1) + [self.out_dim]
        return list(zip(dims[:-1], dims[1:]))


@dataclass(frozen=True)
class HeadConfig:
    in_dim: int
    n_classes: int
    depth: int = 1
    hidden_dim: int | None = None

    def __post_init__(self):
        if self.n_classes < 2:
            raise ContractError("head needs at least two classes")
        if self.depth < 1:
            raise ContractError("head depth must be >= 1")

    def layer_widths(self) -> list[tuple[int, int]]:
        hidden = self.hidden_dim if self.hidden_dim is not None else self.in_dim
        dims = [self.in_dim] + [hidden] * (self.depth - 1) + [self.n_classes]
        return list(zip(dims[:-1], dims[1:]))


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, scale, (fan_in, fan_out))


def _init_stack(rng, widths) -> list[tuple[Tensor, Tensor]]:
    return [(Tensor(_glorot(rng, i, o), tracked=True),
             Tensor(np.zeros(o), tracked=True)) for i, o in widths]


@dataclass
class AdapterWeights:
    config: AdapterConfig
    views: list[list[tuple[Tensor, Tensor]]]

    @classmethod
    def init(cls, config: AdapterConfig, seed: int = 0) -> "AdapterWeights":
        rng = np.random.default_rng(seed)
        n_stacks = 1 if config.shared else config.n_views
        views = [_init_stack(rng, config.layer_widths()) for _ in range(n_stacks)]
        return cls(config=config, views=views)

    def stack_for_view(self, i: int) -> list[tuple[Tensor, Tensor]]:
        return self.views[0] if self.config.shared else self.views[i]

    def parameters(self) -> list[Tensor]:
        return [t for stack in self.views for w, b in stack for t in (w, b)]


@dataclass
class HeadWeights:
    config: HeadConfig
    layers: list[tuple[Tensor, Tensor]]

    @classmethod
    def init(cls, config: HeadConfig, seed: int = 0) -> "HeadWeights":
        rng = np.random.default_rng(seed)
        return cls(config=config, layers=_init_stack(rng, config.layer_widths()))

    def parameters(self) -> list[Tensor]:
        return [t for w, b in self.layers for t in (w, b)]


@dataclass
class FreezeFlags:
    adapter: bool = False
    encoder: bool = True
    head: bool = False


@dataclass
class VisTabNet:
    """Adapter -> encoder slice -> head, with per-component freeze flags."""

    adapter: AdapterWeights
    head: HeadWeights
    encoder: EncoderBundle | None = None
    layer_range: LayerRange | None = None
    use_pos: bool = True
    pool: str = "cls"  # "cls" or "mean" over non-CLS tokens
    freeze: FreezeFlags = field(default_factory=FreezeFlags)

    def __post_init__(self):
        if self.encoder is not None:
            d = self.encoder.config.dim
            if self.adapter.config.out_dim != d:
                raise DimensionError(
                    f"adapter out_dim {self.adapter.config.out_dim} != encoder dim {d}")
            if self.head.config.in_dim != d:
                raise DimensionError(
                    f"head in_dim {self.head.config.in_dim} != encoder dim {d}")
            if self.adapter.config.n_views + 1 > self.encoder.config.max_seq:
                raise CapacityError(
                    f"{self.adapter.config.n_views} views + CLS exceeds "
                    f"max_seq {self.encoder.config.max_seq}")
            if self.layer_range is None:
                self.layer_range = LayerRange(0, self.encoder.config.depth)
            self.layer_range.validate(self.encoder.config.depth)
        self.apply_freeze()

    def apply_freeze(self) -> None:
        for p in self.adapter.parameters():
            p.tracked = not self.freeze.adapter
        for p in self.head.parameters():
            p.tracked = not self.freeze.head
        if self.encoder is not None:
            self.encoder.set_tracked(not self.freeze.encoder)

    def parameter_groups(self) -> dict[str, list[Tensor]]:
        groups = {"adapter": self.adapter.parameters(), "head": self.head.parameters()}
        groups["encoder"] = self.encoder.parameters() if self.encoder is not None else []
        return groups

    def parameters(self) -> list[Tensor]:
        return [p for g in self.parameter_groups().values() for p in g]


def build_model(adapter_cfg: AdapterConfig, head_cfg: HeadConfig,
                bundle: EncoderBundle | None = None,
                layer_range: LayerRange | None = None,
                seed: int = 0, use_pos: bool = True, pool: str = "cls") -> VisTabNet:
    return VisTabNet(
        adapter=AdapterWeights.init(adapter_cfg, seed=seed),
        head=HeadWeights.init(head_cfg, seed=seed + 1),
        encoder=bundle,
        layer_range=layer_range,
        use_pos=use_pos,
        pool=pool,
    )


def _run_stack(x: Tensor, stack) -> Tensor:
    h = x
    for j, (w, b) in enumerate(stack):
        h = T.add(T.matmul(h, w), b)
        if j < len(stack) - 1:
            h = T.gelu(h)
    return h


def adapter_forward(x, adapter: AdapterWeights) -> Tensor:
    """Project one row (M,) to (n, D), or a batch (B, M) to (B, n, D)."""
    cfg = adapter.config
    xt = x if isinstance(x, Tensor) else Tensor(x)
    single = xt.data.ndim == 1
    if xt.shape[-1] != cfg.input_dim:
        raise DimensionError(
            f"adapter expects {cfg.input_dim} input features, got {xt.shape[-1]}")
    if single:
        xt = T.reshape(xt, (1, cfg.input_dim))
    views = [_run_stack(xt, adapter.stack_for_view(i)) for i in range(cfg.n_views)]
    out = T.stack(views, axis=-2)  # (B, n, D)
    if single:
        out = T.reshape(out, (cfg.n_views, cfg.out_dim))
    return out


def assemble_tabular_sequence(views: Tensor, bundle: EncoderBundle,
                              use_pos: bool = True) -> Tensor:
    """[CLS, v_1..v_n]; positional rows are added (truncated) when use_pos."""
    n = views.shape[-2]
    if n + 1 > bundle.config.max_seq:
        raise CapacityError(f"{n} views + CLS exceeds max_seq {bundle.config.max_seq}")
    if views.data.ndim == 3:
        cls = T.expand_leading(bundle.cls_token, views.shape[0])
        seq = T.concat([cls, views], axis=1)
    else:
        seq = T.concat([bundle.cls_token, views], axis=0)
    if use_pos:
        pos = bundle.pos_embed
        if pos.shape[0] != n + 1:
            pos = T.narrow(pos, 0, 0, n + 1)
        seq = T.add(seq, pos)
    return seq


def model_forward(x, model: VisTabNet) -> Tensor:
    """Logits for one row (M,) -> (K,), or a batch (B, M) -> (B, K)."""
    xt = x if isinstance(x, Tensor) else Tensor(x)
    single = xt.data.ndim == 1
    if single:
        xt = T.reshape(xt, (1,) + xt.shape)
    views = adapter_forward(xt, model.adapter)  # (B, n, D)
    if model.encoder is None:
        rep = T.tmean(views, axis=-2)
    else:
        seq = assemble_tabular_sequence(views, model.encoder, use_pos=model.use_pos)
        out = enc.encoder_forward(seq, model.encoder, model.layer_range)
        if model.pool == "mean":
            rep = T.tmean(T.narrow(out, -2, 1, views.shape[-2]), axis=-2)
        else:
            rep = T.take(out, 0, axis=-2)
    logits = _run_stack(rep, model.head.layers)
    if single:
        logits = T.reshape(logits, (model.head.config.n_classes,))
    return logits


def set_freeze_mode(model: VisTabNet, mode: str) -> VisTabNet:
    """frozen: encoder weights stop tracking; fine_tune / fully_trained: all track."""
    if mode not in FREEZE_MODES:
        raise ContractError(f"unknown freeze mode {mode!r}; expected one of {FREEZE_MODES}")
    frozen_encoder = mode == "frozen"
    model.freeze = FreezeFlags(adapter=False, encoder=frozen_encoder, head=False)
    model.apply_freeze()
    return model


def count_trainable(model: VisTabNet) -> int:
    return sum(p.size for p in model.parameters() if p.tracked)


def _adapter_names(adapter: AdapterWeights) -> dict[str, np.ndarray]:
    out = {}
    for i, stack in enumerate(adapter.views):
        for j, (w, b) in enumerate(stack):
            out[f"adapter.view{i}.layer{j}.weight"] = w.data
            out[f"adapter.view{i}.layer{j}.bias"] = b.data
    return out


def _head_names(head: HeadWeights) -> dict[str, np.ndarray]:
    out = {}
    for j, (w, b) in enumerate(head.layers):
        out[f"head.layer{j}.weight"] = w.data
        out[f"head.layer{j}.bias"] = b.data
    return out


def save_checkpoint(model: VisTabNet, path: str | Path) -> None:
    """One container holding encoder, adapter, and head tensors."""
    tensors: dict[str, np.ndarray] = {}
    meta: dict[str, str] = {
        "adapter.input_dim": str(model.adapter.config.input_dim),
        "adapter.n_views": str(model.adapter.config.n_views),
        "adapter.depth": str(model.adapter.config.depth),
        "adapter.hidden_dim": str(model.adapter.config.hidden),
        "adapter.out_dim": str(model.adapter.config.out_dim),
        "adapter.shared": "1" if model.adapter.config.shared else "0",
        "head.in_dim": str(model.head.config.in_dim),
        "head.n_classes": str(model.head.config.n_classes),
        "head.depth": str(model.head.config.depth),
        "use_pos": "1" if model.use_pos else "0",
        "pool": model.pool,
    }
    if model.head.config.hidden_dim is not None:
        meta["head.hidden_dim"] = str(model.head.config.hidden_dim)
    if model.encoder is not None:
        tensors.update(model.encoder.named_tensors())
        cfg = model.encoder.config
        meta.update({
            "encoder.depth": str(cfg.depth), "encoder.dim": str(cfg.dim),
            "encoder.heads": str(cfg.heads), "encoder.mlp_ratio": str(cfg.mlp_ratio),
            "encoder.max_seq": str(cfg.max_seq), "encoder.patch": str(cfg.patch),
            "encoder.channels": str(cfg.channels),
            "range.start": str(model.layer_range.start),
            "range.end": str(model.layer_range.end),
        })
    tensors.update(_adapter_names(model.adapter))
    tensors.update(_head_names(model.head))
    wio.save_tensors(path, tensors, metadata=meta)


def load_checkpoint(path: str | Path) -> VisTabNet:
    tensors, meta = wio.load_tensors(path)
    adapter_cfg = AdapterConfig(
        input_dim=int(meta["adapter.input_dim"]),
        n_views=int(meta["adapter.n_views"]),
        depth=int(meta["adapter.depth"]),
        hidden_dim=int(meta["adapter.hidden_dim"]),
        out_dim=int(meta["adapter.out_dim"]),
        shared=meta.get("adapter.shared") == "1",
    )
    n_stacks = 1 if adapter_cfg.shared else adapter_cfg.n_views
    views = []
    for i in range(n_stacks):
        stack = []
        for j in range(adapter_cfg.depth):
            w = wio.require(tensors, f"adapter.view{i}.layer{j}.weight")
            b = wio.require(tensors, f"adapter.view{i}.layer{j}.bias")
            stack.append((Tensor(w, tracked=True), Tensor(b, tracked=True)))
        views.append(stack)
    adapter = AdapterWeights(config=adapter_cfg, views=views)

    head_cfg = HeadConfig(
        in_dim=int(meta["head.in_dim"]),
        n_classes=int(meta["head.n_classes"]),
        depth=int(meta["head.depth"]),
        hidden_dim=int(meta["head.hidden_dim"]) if "head.hidden_dim" in meta else None,
    )
    layers = []
    for j in range(head_cfg.depth):
        w = wio.require(tensors, f"head.layer{j}.weight")
        b = wio.require(tensors, f"head.layer{j}.bias")
        layers.append((Tensor(w, tracked=True), Tensor(b, tracked=True)))
    head = HeadWeights(config=head_cfg, layers=layers)

    bundle = None
    layer_range = None
    if "encoder.depth" in meta:
        enc_cfg = EncoderConfig(
            depth=int(meta["encoder.depth"]), dim=int(meta["encoder.dim"]),
            heads=int(meta["encoder.heads"]), mlp_ratio=int(meta["encoder.mlp_ratio"]),
            max_seq=int(meta["encoder.max_seq"]), patch=int(meta["encoder.patch"]),
            channels=int(meta["encoder.channels"]),
        )
        sub = {k: v for k, v in tensors.items()
               if not k.startswith(("adapter.", "head."))}
        bundle = enc.bundle_from_tensors(sub, enc_cfg)
        layer_range = LayerRange(int(meta["range.start"]), int(meta["range.end"]))

    return VisTabNet(
        adapter=adapter, head=head, encoder=bundle, layer_range=layer_range,
        use_pos=meta.get("use_pos", "1") == "1", pool=meta.get("pool", "cls"),
    )
