"""Multi-view adaptation network, replacement head, and the composed model.

A tabular row x in R^M is mapped by n independent feed-forward projections
to n pseudo-patch tokens in R^D. The n projections are stored stacked: each
adapter layer is one ``(n, in, out)`` weight and one ``(n, 1, out)`` bias,
saved as ``adapter.layer{j}.weight`` / ``adapter.layer{j}.bias``, so every
view runs in the same batched ops. The token sequence [CLS, v_1..v_n] runs
through a (possibly sliced, possibly frozen) pre-trained encoder, with the
encoder's position embedding added, and the CLS output row feeds a small
classification head, so the slice's last block computes the CLS row alone
(``cls_only`` of :func:`vistab.encoder.encoder_forward`). Dropping the
encoder entirely (``bundle=None``) degenerates to adapter -> mean over the
views -> head, which is the no-encoder ablation arm.

A model holds only the slice of the encoder that it runs
(:meth:`vistab.encoder.EncoderBundle.slice`): the range's blocks, CLS,
``pos_embed`` and, when the range reaches the last layer, the final norm. The
same tensors as the caller's bundle, uncopied; the other layers are freed once
the caller drops that bundle. Its freeze mode tracks or untracks that slice, a
checkpoint holds that slice, and its ``encoder.load_checksum`` is that slice's
checksum when the model was made.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import encoder as enc
from . import tensor as T
from . import weights as wio
from .encoder import EncoderBundle, EncoderConfig, LayerRange
from .errors import (CapacityError, ConfigError, ContractError, DimensionError,
                     seeded_rng)
from .tensor import Tensor

# training from random weights is fine_tune on a random_bundle
FREEZE_MODES = ("frozen", "fine_tune")
# VisTabNet's own settings, stored under the checkpoint's "model" metadata key
_MODEL_FIELDS = ("freeze_mode",)


def _dense_widths(in_dim: int, hidden_dim: int, depth: int, out_dim: int) -> list[tuple[int, int]]:
    """(in, out) of each layer of a dense stack of `depth` layers, `hidden_dim` wide inside."""
    dims = [in_dim] + [hidden_dim] * (depth - 1) + [out_dim]
    return list(zip(dims[:-1], dims[1:]))


@dataclass(frozen=True)
class AdapterConfig:
    input_dim: int
    n_views: int
    depth: int = 1
    hidden_dim: int | None = None
    out_dim: int = 32

    def __post_init__(self):
        enc.require_sizes(self)

    def layer_widths(self) -> list[tuple[int, int]]:
        hidden = self.hidden_dim if self.hidden_dim is not None else self.out_dim
        return _dense_widths(self.input_dim, hidden, self.depth, self.out_dim)


@dataclass(frozen=True)
class HeadConfig:
    in_dim: int
    n_classes: int
    depth: int = 1
    hidden_dim: int | None = None

    def __post_init__(self):
        enc.require_sizes(self)
        if self.n_classes < 2:
            raise ContractError("head needs at least two classes")

    def layer_widths(self) -> list[tuple[int, int]]:
        hidden = self.hidden_dim if self.hidden_dim is not None else self.in_dim
        return _dense_widths(self.in_dim, hidden, self.depth, self.n_classes)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, scale, (fan_in, fan_out))


class _DenseStack:
    """A stack of dense layers; its `layers` field holds one (weight, bias) pair per layer."""

    def parameters(self) -> list[Tensor]:
        return [t for w, b in self.layers for t in (w, b)]


@dataclass
class AdapterWeights(_DenseStack):
    """Every view's projection, stacked: layer j is one ``(n_views, in, out)`` weight
    and one ``(n_views, 1, out)`` bias (it broadcasts over the batch), checkpointed
    as ``adapter.layer{j}.weight`` and ``adapter.layer{j}.bias``."""

    config: AdapterConfig
    layers: list[tuple[Tensor, Tensor]]

    @classmethod
    def init(cls, config: AdapterConfig, seed: int = 0) -> "AdapterWeights":
        rng = seeded_rng(seed)
        widths = config.layer_widths()
        # drawn view by view, then layer by layer, and stacked per layer
        views = [[_glorot(rng, i, o) for i, o in widths] for _ in range(config.n_views)]
        return cls(config=config, layers=[
            (Tensor(np.stack(ws), tracked=True),
             Tensor(np.zeros((config.n_views, 1, o)), tracked=True))
            for ws, (_, o) in zip(zip(*views), widths)])


@dataclass
class HeadWeights(_DenseStack):
    config: HeadConfig
    layers: list[tuple[Tensor, Tensor]]

    @classmethod
    def init(cls, config: HeadConfig, seed: int = 0) -> "HeadWeights":
        rng = seeded_rng(seed)
        return cls(config=config, layers=[
            (Tensor(_glorot(rng, i, o), tracked=True), Tensor(np.zeros(o), tracked=True))
            for i, o in config.layer_widths()])


@dataclass
class VisTabNet:
    """Adapter -> encoder slice -> head on the CLS row; `freeze_mode` is one of FREEZE_MODES.

    ``layer_range`` needs an encoder and defaults to all of its layers. Making the model
    replaces ``encoder`` with the slice of it that ``layer_range`` runs, hashes that
    slice into its ``load_checksum``, and runs :func:`set_freeze_mode`. Changing
    ``layer_range`` afterwards is not supported: the slice holds no other layer, and
    :func:`vistab.encoder.encoder_forward` names the first one it lacks.
    """

    adapter: AdapterWeights
    head: HeadWeights
    encoder: EncoderBundle | None = None
    layer_range: LayerRange | None = None
    freeze_mode: str = "frozen"

    def __post_init__(self):
        if self.encoder is None and self.layer_range is not None:
            raise ContractError(f"layer_range {self.layer_range} given without an encoder")
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
            self.encoder = self.encoder.slice(self.layer_range)
        set_freeze_mode(self, self.freeze_mode)

    def parameter_groups(self) -> dict[str, list[Tensor]]:
        groups = {"adapter": self.adapter.parameters(), "head": self.head.parameters()}
        groups["encoder"] = self.encoder.parameters() if self.encoder is not None else []
        return groups

    def parameters(self) -> list[Tensor]:
        return [p for g in self.parameter_groups().values() for p in g]


def build_model(adapter_cfg: AdapterConfig, head_cfg: HeadConfig,
                bundle: EncoderBundle | None = None,
                layer_range: LayerRange | None = None,
                seed: int = 0) -> VisTabNet:
    return VisTabNet(
        adapter=AdapterWeights.init(adapter_cfg, seed=seed),
        head=HeadWeights.init(head_cfg, seed=seed + 1),
        encoder=bundle,
        layer_range=layer_range,
    )


def _run_stack(x: Tensor, stack) -> Tensor:
    h = x
    for j, (w, b) in enumerate(stack):
        h = T.add(T.matmul(h, w), b)
        if j < len(stack) - 1:
            h = T.gelu(h)
    return h


def adapter_forward(x, adapter: AdapterWeights) -> Tensor:
    """Project a batch (B, M) to (B, n, D). Batch only: a single row goes in
    as a batch of one."""
    cfg = adapter.config
    xt = x if isinstance(x, Tensor) else Tensor(x)
    if xt.data.ndim != 2 or xt.shape[-1] != cfg.input_dim:
        raise DimensionError(f"adapter expects (B, M) with M = {cfg.input_dim}, got {xt.shape}")
    # every view at once: (B, M) @ (n, M, D) broadcasts to (n, B, D), then (B, n, D)
    return T.swap_axes(_run_stack(xt, adapter.layers), 0, 1)


# a module attribute of its own, looked up by model_forward at call time
assemble_tabular_sequence = enc.assemble_sequence


def model_forward(x, model: VisTabNet) -> Tensor:
    """Logits for a batch (B, M) -> (B, K). Batch only: a single row goes in as
    a batch of one, and any other rank raises :class:`DimensionError`."""
    views = adapter_forward(x, model.adapter)  # (B, n, D)
    if model.encoder is None:
        rep = T.tmean(views, axis=-2)
    else:
        seq = assemble_tabular_sequence(views, model.encoder)
        out = enc.encoder_forward(seq, model.encoder, model.layer_range, cls_only=True)
        rep = T.take(out, 0, axis=-2)
    return _run_stack(rep, model.head.layers)


def set_freeze_mode(model: VisTabNet, mode: str) -> VisTabNet:
    """frozen: no encoder tensor tracks; fine_tune: every tensor of the model's encoder,
    the slice that :func:`model_forward` reads, tracks. Training from random weights is
    fine_tune on a :func:`vistab.encoder.random_bundle`. The adapter and the head always
    track.

    Only the model's own tensors change, so models cut from one bundle keep their own
    modes, except in the tensors that both read (CLS and ``pos_embed`` always): those
    follow the last call.
    """
    if mode not in FREEZE_MODES:
        raise ContractError(f"unknown freeze mode {mode!r}; expected one of {FREEZE_MODES}")
    model.freeze_mode = mode
    for p in model.adapter.parameters() + model.head.parameters():
        p.tracked = True
    if model.encoder is not None:
        model.encoder.set_tracked(mode != "frozen")
    return model


def count_trainable(model: VisTabNet) -> int:
    """Values in the tracked tensors: the adapter, the head and, unless frozen, the
    model's encoder slice."""
    return sum(p.size for p in model.parameters() if p.tracked)


def _dense_slots(adapter: AdapterConfig, head: HeadConfig) -> list[list[tuple]]:
    """Checkpoint name and shape of each layer's (w, b): the adapter's, then the head's."""
    n = adapter.n_views
    return [[((f"adapter.layer{j}.weight", (n, i, o)), (f"adapter.layer{j}.bias", (n, 1, o)))
             for j, (i, o) in enumerate(adapter.layer_widths())],
            [((f"head.layer{j}.weight", (i, o)), (f"head.layer{j}.bias", (o,)))
             for j, (i, o) in enumerate(head.layer_widths())]]


def save_checkpoint(model: VisTabNet, path: str | Path) -> None:
    """One container holding the encoder slice's, the adapter's and the head's tensors
    and their configs."""
    configs = {"adapter": model.adapter.config, "head": model.head.config}
    tensors: dict[str, np.ndarray] = {}
    if model.encoder is not None:
        configs.update(encoder=model.encoder.config, layer_range=model.layer_range)
        tensors.update(model.encoder.named_tensors())
    meta = {key: json.dumps(asdict(cfg)) for key, cfg in configs.items()}
    meta["model"] = json.dumps({name: getattr(model, name) for name in _MODEL_FIELDS})
    # slots and parameters() both walk the adapter, then the head, layer by layer
    slots = [s for stack in _dense_slots(model.adapter.config, model.head.config)
             for pair in stack for s in pair]
    params = model.adapter.parameters() + model.head.parameters()
    tensors.update((name, p.data) for (name, _), p in zip(slots, params, strict=True))
    wio.save_tensors(path, tensors, metadata=meta)


def load_checkpoint(path: str | Path) -> VisTabNet:
    """Rebuild a saved model; every tensor is shape-checked against its config.

    The encoder is rebuilt as the stored range's slice, so a checkpoint that holds the
    whole encoder loads too, its other tensors unread into the model."""
    tensors, meta = wio.load_tensors(path)
    adapter_cfg = enc.read_config(meta, "adapter", AdapterConfig)
    head_cfg = enc.read_config(meta, "head", HeadConfig)
    adapter_layers, head_layers = (
        [tuple(Tensor(wio.require(tensors, name, shape), tracked=True) for name, shape in pair)
         for pair in stack] for stack in _dense_slots(adapter_cfg, head_cfg))
    bundle = layer_range = None
    if "encoder" in meta:
        encoder_cfg = enc.read_config(meta, "encoder", EncoderConfig)
        layer_range = enc.read_config(meta, "layer_range", LayerRange)
        try:  # a range that the stored encoder's depth does not hold
            layer_range.validate(encoder_cfg.depth)
        except ContractError as e:
            raise ConfigError(f"metadata 'layer_range': {e}") from None
        bundle = enc.bundle_from_tensors(tensors, encoder_cfg, layer_range)
    stored = enc.read_metadata(meta, "model", _MODEL_FIELDS)
    if stored["freeze_mode"] not in FREEZE_MODES:
        raise ConfigError(f"metadata 'model': field 'freeze_mode' must be one of "
                          f"{FREEZE_MODES}, got {stored['freeze_mode']!r}")
    return VisTabNet(
        adapter=AdapterWeights(config=adapter_cfg, layers=adapter_layers),
        head=HeadWeights(config=head_cfg, layers=head_layers),
        encoder=bundle, layer_range=layer_range, **stored,
    )
