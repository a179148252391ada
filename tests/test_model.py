import functools
import json
import math
import re
import threading
from dataclasses import fields

import numpy as np
import pytest

from gradcheck import finite_diff_grad
from vistab import encoder as enc
from vistab import model as M
from vistab import tensor as T
from vistab.encoder import EncoderConfig, LayerRange
from vistab import weights as wio
from vistab.errors import CapacityError, ConfigError, ContractError, DimensionError
from vistab.model import AdapterConfig, HeadConfig
from vistab.tensor import Tape, Tensor, backward

CFG = EncoderConfig(depth=2, dim=8, heads=2, mlp_ratio=2, max_seq=6)


def toy_model(seed=0, n_views=3, bundle=None, input_dim=4):
    if bundle is None:
        bundle = enc.random_bundle(CFG, seed=seed, scale=0.3)
    return M.build_model(
        AdapterConfig(input_dim=input_dim, n_views=n_views, depth=2, out_dim=CFG.dim),
        HeadConfig(in_dim=CFG.dim, n_classes=3, depth=2),
        bundle=bundle, seed=seed,
    )


class TestAdapterForward:
    def test_zero_weights_returns_biases(self):
        cfg = AdapterConfig(input_dim=4, n_views=3, depth=1, out_dim=5)
        adapter = M.AdapterWeights.init(cfg, seed=0)
        w, b = adapter.layers[-1]
        w.data[:] = 0.0
        for i in range(3):
            b.data[i] = float(i + 1)
        out = M.adapter_forward(np.ones((1, 4)), adapter)
        for i in range(3):
            np.testing.assert_array_equal(out.data[0, i], np.full(5, i + 1.0))

    def test_depth_one_is_a_linear_map(self):
        cfg = AdapterConfig(input_dim=6, n_views=4, depth=1, out_dim=5)
        adapter = M.AdapterWeights.init(cfg, seed=1)
        x = np.random.default_rng(2).normal(size=(1, 6))
        out = M.adapter_forward(x, adapter)
        w, b = adapter.layers[0]
        for i in range(4):
            np.testing.assert_allclose(out.data[0, i], x[0] @ w.data[i] + b.data[i, 0],
                                       atol=1e-12)

    def test_init_stacks_per_view_draws(self):
        cfg = AdapterConfig(input_dim=4, n_views=3, depth=2, hidden_dim=6, out_dim=5)
        adapter = M.AdapterWeights.init(cfg, seed=8)
        rng = np.random.default_rng(8)  # one view's layers after another, as drawn
        want = [[M._glorot(rng, i, o) for i, o in cfg.layer_widths()] for _ in range(3)]
        assert [(w.shape, b.shape) for w, b in adapter.layers] == [
            ((3, 4, 6), (3, 1, 6)), ((3, 6, 5), (3, 1, 5))]
        for j, (w, b) in enumerate(adapter.layers):
            for i in range(3):
                assert np.array_equal(w.data[i], want[i][j])
            assert not b.data.any()

    @pytest.mark.parametrize("rows", [1, 5], ids=["batch_of_one", "batch"])
    def test_matches_a_loop_over_views_bit_for_bit(self, rows):
        cfg = AdapterConfig(input_dim=4, n_views=3, depth=2, hidden_dim=6, out_dim=5)
        adapter = M.AdapterWeights.init(cfg, seed=9)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(rows, 4))
        upstream = Tensor(rng.normal(size=(rows, 3, 5)))
        # the reference: each view's (w, b) as leaves of its own, run one view at a time
        views = [[(Tensor(w.data[i].copy(), tracked=True),
                   Tensor(b.data[i, 0].copy(), tracked=True)) for w, b in adapter.layers]
                 for i in range(3)]
        with Tape():
            got = M.adapter_forward(x, adapter)
            loss = T.tsum(T.mul(got, upstream))
        backward(loss)
        with Tape():
            xt = Tensor(x)
            want = T.stack([M._run_stack(xt, stack) for stack in views], axis=-2)
            loss = T.tsum(T.mul(want, upstream))
        backward(loss)
        assert np.array_equal(got.data, want.data)
        for j, (w, b) in enumerate(adapter.layers):
            for i in range(3):
                assert np.array_equal(w.grad[i], views[i][j][0].grad)
                assert np.array_equal(b.grad[i, 0], views[i][j][1].grad)

    def test_shape_contract(self):
        cfg = AdapterConfig(input_dim=4, n_views=8, depth=2, out_dim=32)
        adapter = M.AdapterWeights.init(cfg, seed=3)
        assert M.adapter_forward(np.zeros((1, 4)), adapter).shape == (1, 8, 32)
        assert M.adapter_forward(np.zeros((7, 4)), adapter).shape == (7, 8, 32)

    def test_dimension_mismatch_names_m(self):
        cfg = AdapterConfig(input_dim=4, n_views=2, depth=1, out_dim=5)
        adapter = M.AdapterWeights.init(cfg, seed=0)
        with pytest.raises(DimensionError, match="4"):
            M.adapter_forward(np.zeros((1, 5)), adapter)
        with pytest.raises(DimensionError, match=re.escape("(4,)")):  # a row needs a batch axis
            M.adapter_forward(np.zeros(4), adapter)
        with pytest.raises(DimensionError, match=re.escape("(2, 3, 4)")):
            M.adapter_forward(np.zeros((2, 3, 4)), adapter)


class TestAssembleTabularSequence:
    def test_zero_pos_embed_is_plain_prepend(self):
        bundle = enc.random_bundle(CFG, seed=6)
        bundle.pos_embed.data[:] = 0.0
        views = np.random.default_rng(7).normal(size=(2, 3, 8))
        seq = M.assemble_tabular_sequence(Tensor(views), bundle)
        np.testing.assert_array_equal(seq.data[:, 0], np.tile(bundle.cls_token.data, (2, 1)))
        np.testing.assert_array_equal(seq.data[:, 1:], views)

    def test_rows_are_sums_with_pos(self):
        bundle = enc.random_bundle(CFG, seed=10)
        views = np.random.default_rng(11).normal(size=(2, 3, 8))
        seq = M.assemble_tabular_sequence(Tensor(views), bundle)
        for b in range(2):
            np.testing.assert_allclose(
                seq.data[b, 0], bundle.cls_token.data[0] + bundle.pos_embed.data[0])
            for i in range(3):
                np.testing.assert_allclose(
                    seq.data[b, i + 1], views[b, i] + bundle.pos_embed.data[i + 1])

    def test_capacity(self):
        bundle = enc.random_bundle(CFG, seed=0)
        with pytest.raises(CapacityError):
            M.assemble_tabular_sequence(Tensor(np.zeros((1, CFG.max_seq, 8))), bundle)


class TestModelForward:
    def test_zero_cascade_returns_head_bias(self):
        bundle = enc.random_bundle(EncoderConfig(depth=2, dim=8, heads=2, mlp_ratio=2, max_seq=6),
                                   scale=0.0)
        model = M.build_model(
            AdapterConfig(input_dim=4, n_views=3, depth=1, out_dim=8),
            HeadConfig(in_dim=8, n_classes=3, depth=1),
            bundle=bundle, layer_range=LayerRange(0, 1),
        )
        for w, b in model.adapter.layers:
            w.data[:] = 0.0
            b.data[:] = 0.0
        w, b = model.head.layers[0]
        w.data[:] = 0.0
        b.data[:] = [1.0, 2.0, 3.0]
        out = M.model_forward(np.random.default_rng(0).normal(size=(2, 4)), model)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])

    def test_matches_hand_stepped_reference(self):
        cfg = EncoderConfig(depth=1, dim=4, heads=2, mlp_ratio=2, max_seq=4)
        bundle = enc.random_bundle(cfg, seed=12, scale=0.4)
        model = M.build_model(
            AdapterConfig(input_dim=3, n_views=2, depth=1, out_dim=4),
            HeadConfig(in_dim=4, n_classes=2, depth=1),
            bundle=bundle, seed=13,
        )
        x = np.random.default_rng(14).normal(size=3)
        got = M.model_forward(x[None], model).data[0]

        # straight-line reference
        def ln(v, g, b, eps=1e-6):
            mu = v.mean(-1, keepdims=True)
            var = ((v - mu) ** 2).mean(-1, keepdims=True)
            return (v - mu) / np.sqrt(var + eps) * g + b

        def sm(v):
            e = np.exp(v - v.max(-1, keepdims=True))
            return e / e.sum(-1, keepdims=True)

        from scipy.special import erf

        def gelu(v):
            return v * 0.5 * (1 + erf(v / math.sqrt(2)))

        aw, ab = model.adapter.layers[0]
        views = np.stack([x @ aw.data[i] + ab.data[i, 0] for i in range(2)])
        seq = np.concatenate([bundle.cls_token.data, views]) + bundle.pos_embed.data[:3]
        L = bundle.layers[0]
        h = ln(seq, L.ln1_gain.data, L.ln1_bias.data)
        q, k, v = (h @ w.data + b.data for w, b in
                   ((L.wq, L.bq), (L.wk, L.bk), (L.wv, L.bv)))
        heads = []
        for i in range(2):
            qi, ki, vi = q[:, 2*i:2*i+2], k[:, 2*i:2*i+2], v[:, 2*i:2*i+2]
            heads.append(sm(qi @ ki.T / math.sqrt(2)) @ vi)
        seq = seq + np.concatenate(heads, axis=1) @ L.wo.data + L.bo.data
        h = ln(seq, L.ln2_gain.data, L.ln2_bias.data)
        seq = seq + gelu(h @ L.w1.data + L.b1.data) @ L.w2.data + L.b2.data
        seq = ln(seq, bundle.final_gain.data, bundle.final_bias.data)
        hw, hb = model.head.layers[0]
        want = seq[0] @ hw.data + hb.data
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_batched_equals_independent_forwards(self):
        model = toy_model(seed=15)
        rng = np.random.default_rng(16)
        batch = rng.normal(size=(5, 4))
        full = M.model_forward(batch, model).data
        for i in range(5):
            one = M.model_forward(batch[i:i + 1], model).data
            np.testing.assert_allclose(full[i:i + 1], one, atol=1e-12)

    def test_deterministic(self):
        model = toy_model(seed=17)
        x = np.random.default_rng(18).normal(size=(3, 4))
        a = M.model_forward(x, model).data
        b = M.model_forward(x, model).data
        assert (a == b).all()

    def test_no_encoder_mode(self):
        model = M.build_model(
            AdapterConfig(input_dim=4, n_views=3, depth=2, out_dim=8),
            HeadConfig(in_dim=8, n_classes=3, depth=1),
            bundle=None, seed=19,
        )
        assert model.parameter_groups()["encoder"] == []
        out = M.model_forward(np.random.default_rng(20).normal(size=(2, 4)), model)
        assert out.shape == (2, 3)

    def test_view_permutation_invariance_with_equal_view_positions(self):
        bundle = enc.random_bundle(CFG, seed=21, scale=0.4)
        bundle.pos_embed.data[2:] = bundle.pos_embed.data[1]  # CLS keeps its own row
        model = toy_model(seed=22, bundle=bundle)
        views = np.random.default_rng(23).normal(size=(2, 3, 8))

        def logits_for(v):
            seq = M.assemble_tabular_sequence(Tensor(v), bundle)
            out = enc.encoder_forward(seq, bundle, model.layer_range)
            return M._run_stack(T.take(out, 0, axis=-2), model.head.layers).data

        base = logits_for(views)
        perm = logits_for(views[:, [2, 0, 1]])
        np.testing.assert_allclose(base, perm, atol=1e-10)


class TestFreezeAndCounting:
    def test_freeze_mode_flags(self):
        model = toy_model(seed=24)
        M.set_freeze_mode(model, "frozen")
        assert all(not p.tracked for p in model.parameter_groups()["encoder"])
        assert all(p.tracked for p in model.parameter_groups()["adapter"])
        assert all(p.tracked for p in model.parameter_groups()["head"])
        M.set_freeze_mode(model, "fine_tune")  # the slice is the whole encoder here
        assert all(p.tracked for p in model.parameters())

    def test_mode_transitions_idempotent(self):
        model = toy_model(seed=25)
        M.set_freeze_mode(model, "frozen")
        first = [p.tracked for p in model.parameters()]
        M.set_freeze_mode(model, "frozen")
        assert [p.tracked for p in model.parameters()] == first

    @pytest.mark.parametrize("field, value", [("pool", "cls"), ("pool", "mean"),
                                              ("use_pos", True), ("use_pos", False),
                                              ("freeze_mode", "fully_trained")])
    def test_a_removed_setting_in_a_checkpoint_is_named(self, tmp_path, field, value):
        file = tmp_path / "model.weights"
        M.save_checkpoint(toy_model(seed=37), file)
        tensors, meta = wio.load_tensors(file)
        meta["model"] = json.dumps({**json.loads(meta["model"]), field: value})
        wio.save_tensors(file, tensors, metadata=meta)
        with pytest.raises(ConfigError, match=f"'model'.*'{field}'"):
            M.load_checkpoint(file)

    @pytest.mark.parametrize("mode", ["half_frozen", "fully_trained"])
    def test_unknown_mode(self, mode):
        with pytest.raises(ContractError, match=re.escape(f"{mode!r}; expected one of "
                                                          "('frozen', 'fine_tune')")):
            M.set_freeze_mode(toy_model(), mode)

    def test_trainable_count_shape_arithmetic(self):
        bundle = enc.random_bundle(EncoderConfig(depth=1, dim=8, heads=2, mlp_ratio=2, max_seq=4),
                                   scale=0.0)
        model = M.build_model(
            AdapterConfig(input_dim=4, n_views=2, depth=1, out_dim=8),
            HeadConfig(in_dim=8, n_classes=2, depth=1),
            bundle=bundle,
        )
        M.set_freeze_mode(model, "frozen")
        assert M.count_trainable(model) == 2 * (4 * 8 + 8) + (8 * 2 + 2)

    def test_fine_tune_count_is_the_slice(self):
        cfg = EncoderConfig(depth=3, dim=8, heads=2, mlp_ratio=2, max_seq=4)
        model = M.build_model(
            AdapterConfig(input_dim=4, n_views=2, depth=1, out_dim=8),
            HeadConfig(in_dim=8, n_classes=2, depth=1),
            bundle=enc.random_bundle(cfg, scale=0.0, with_patch=True),
            layer_range=LayerRange(1, 3),
        )
        M.set_freeze_mode(model, "fine_tune")
        block = 2 * (2 * 8) + 4 * (8 * 8 + 8) + (8 * 16 + 16) + (16 * 8 + 8)
        # blocks 1 and 2, CLS, pos_embed and the final norm; not block 0 nor the patch projection
        assert M.count_trainable(model) == (2 * (4 * 8 + 8) + (8 * 2 + 2)
                                            + 2 * block + 8 + 4 * 8 + 2 * 8)

    @pytest.mark.parametrize("layer_range", [LayerRange(0, 1), LayerRange(1, 2), LayerRange(2, 3),
                                             LayerRange(0, 2), LayerRange(1, 3), LayerRange(0, 3)],
                             ids=lambda r: f"{r.start}-{r.end}")
    @pytest.mark.parametrize("mode", M.FREEZE_MODES)
    @pytest.mark.parametrize("parts", [1, 2], ids=["whole_batch", "split_batch"])
    @pytest.mark.parametrize("rows", ["cls_only", "every_row"])
    def test_gradients_reach_exactly_the_tracked_tensors(self, monkeypatch, mode, layer_range,
                                                         parts, rows):
        # every_row runs the slice's last block on every row, as the block probes do;
        # split_batch makes each block that can split its batch in two parts
        if rows == "every_row":
            forward = enc.encoder_forward
            monkeypatch.setattr(enc, "encoder_forward", lambda t0, b, r, **_: forward(t0, b, r))
        monkeypatch.setattr(enc, "_parts", lambda b, s, d: max(1, min(parts, b)))
        cfg = EncoderConfig(depth=3, dim=8, heads=2, mlp_ratio=2, max_seq=5, patch=2)
        bundle = enc.random_bundle(cfg, seed=38, scale=0.3, with_patch=True)
        model = M.build_model(AdapterConfig(input_dim=4, n_views=3, out_dim=8),
                              HeadConfig(in_dim=8, n_classes=3), bundle=bundle,
                              layer_range=layer_range, seed=39)
        bundle.set_tracked(True)  # the mode, not what tracked before, decides
        M.set_freeze_mode(model, mode)
        rng = np.random.default_rng(40)
        with Tape():
            loss = T.cross_entropy(M.model_forward(rng.normal(size=(3, 4)), model),
                                   rng.integers(0, 3, 3))
        backward(loss)
        params = model.parameters()
        assert [p.grad is not None for p in params] == [p.tracked for p in params]
        blocks = len(bundle.layers[0].tensors()) * (layer_range.end - layer_range.start)
        expected = 0 if mode == "frozen" else (
            blocks + 2 + 2 * (layer_range.end == cfg.depth))  # CLS, pos, final norm
        assert sum(p.tracked for p in bundle.parameters()) == expected

    def test_layer_range_without_an_encoder_is_refused(self):
        with pytest.raises(ContractError, match="layer_range"):
            M.build_model(AdapterConfig(input_dim=4, n_views=3, out_dim=CFG.dim),
                          HeadConfig(in_dim=CFG.dim, n_classes=3), layer_range=LayerRange(0, 2))

    def test_fine_tune_count_dominates(self):
        model = toy_model(seed=26)
        M.set_freeze_mode(model, "frozen")
        frozen = M.count_trainable(model)
        M.set_freeze_mode(model, "fine_tune")
        assert M.count_trainable(model) >= frozen


class TestGradientFlow:
    def test_adapter_and_head_grads_through_frozen_encoder(self):
        model = toy_model(seed=27)
        M.set_freeze_mode(model, "frozen")
        x = np.random.default_rng(28).normal(size=(2, 4))
        labels = [0, 2]

        probe_w = model.adapter.layers[0][0]  # every view's first-layer weight
        probe_h = model.head.layers[0][0]

        def loss_fn():
            logits = M.model_forward(x, model)
            return T.cross_entropy(logits, labels)

        with Tape():
            loss = loss_fn()
        backward(loss)

        for probe in (probe_w, probe_h):
            got = probe.grad.copy()
            base = probe.data.copy()

            def f(p):
                probe.data[:] = p.data
                out = loss_fn()
                probe.data[:] = base
                return out

            want = finite_diff_grad(f, Tensor(base), h=1e-5)
            denom = max(np.abs(want).max(), 1e-12)
            assert np.abs(got - want).max() / denom < 1e-4

        assert all(p.grad is None for p in model.parameter_groups()["encoder"])


class TestTapePerThread:
    def test_untaped_forward_on_another_thread_records_nothing(self):
        model = toy_model(seed=40)
        x = np.random.default_rng(41).normal(size=(2, 4))
        other = {}
        with Tape() as tape:
            loss = T.cross_entropy(M.model_forward(x, model), [0, 2])
            recorded = len(tape)
            thread = threading.Thread(target=lambda: other.update(out=M.model_forward(x, model)))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert len(tape) == recorded
        assert not other["out"].tracked
        np.testing.assert_array_equal(other["out"].data, M.model_forward(x, model).data)
        backward(loss)
        assert all(p.grad is not None for p in model.adapter.parameters())


class TestCheckpoint:
    def test_round_trip_preserves_forward(self, tmp_path):
        model = toy_model(seed=29)
        path = tmp_path / "model.weights"
        M.save_checkpoint(model, path)
        loaded = M.load_checkpoint(path)
        x = np.random.default_rng(30).normal(size=(2, 4))
        np.testing.assert_array_equal(
            M.model_forward(x, model).data, M.model_forward(x, loaded).data)

    def test_tensor_naming_scheme(self, tmp_path):
        from vistab import weights as wio
        model = toy_model(seed=31)
        path = tmp_path / "model.weights"
        M.save_checkpoint(model, path)
        tensors, _ = wio.load_tensors(path)
        assert tensors["adapter.layer0.weight"].shape == (3, 4, CFG.dim)
        assert tensors["adapter.layer1.bias"].shape == (3, 1, CFG.dim)
        assert not any(".view" in name for name in tensors)
        assert "head.layer0.weight" in tensors
        assert "head.layer1.bias" in tensors
        assert "layers.0.attn.q.weight" in tensors

    def test_head_hidden_dim_round_trips(self, tmp_path):
        model = M.build_model(
            AdapterConfig(input_dim=4, n_views=3, depth=1, out_dim=CFG.dim),
            HeadConfig(in_dim=CFG.dim, n_classes=3, depth=2, hidden_dim=4),
            bundle=enc.random_bundle(CFG, seed=34, scale=0.3), seed=34)
        path = tmp_path / "hidden.weights"
        M.save_checkpoint(model, path)
        loaded = M.load_checkpoint(path)
        assert loaded.head.config == model.head.config
        x = np.random.default_rng(35).normal(size=(2, 4))
        np.testing.assert_array_equal(
            M.model_forward(x, model).data, M.model_forward(x, loaded).data)

    def test_no_encoder_checkpoint(self, tmp_path):
        model = M.build_model(
            AdapterConfig(input_dim=4, n_views=2, depth=1, out_dim=8),
            HeadConfig(in_dim=8, n_classes=2, depth=1), bundle=None, seed=32)
        path = tmp_path / "bare.weights"
        M.save_checkpoint(model, path)
        loaded = M.load_checkpoint(path)
        assert loaded.encoder is None
        x = np.random.default_rng(33).normal(size=(2, 4))
        np.testing.assert_array_equal(
            M.model_forward(x, model).data, M.model_forward(x, loaded).data)

    def test_round_trip_restores_every_setting(self, tmp_path):
        cfg = EncoderConfig(depth=2, dim=8, heads=2, mlp_ratio=2, max_seq=6, patch=2, channels=3)
        model = M.build_model(
            AdapterConfig(input_dim=4, n_views=3, depth=2, hidden_dim=None, out_dim=cfg.dim),
            HeadConfig(in_dim=cfg.dim, n_classes=3, depth=2, hidden_dim=5),
            bundle=enc.random_bundle(cfg, seed=36, scale=0.3), layer_range=LayerRange(0, 1),
            seed=36)
        M.set_freeze_mode(model, "fine_tune")
        path = tmp_path / "fine_tune.weights"
        M.save_checkpoint(model, path)
        loaded = M.load_checkpoint(path)
        assert loaded.adapter.config == model.adapter.config
        assert loaded.head.config == model.head.config
        assert loaded.encoder.config == cfg
        assert (loaded.layer_range, loaded.freeze_mode) == (LayerRange(0, 1), "fine_tune")
        # fine_tune tracks the slice alone: block 0, CLS and pos_embed (the range stops
        # short of the final norm), in the saved model and in the reloaded one
        tracked = [p.tracked for p in loaded.parameters()]
        assert tracked == [p.tracked for p in model.parameters()]
        want = {id(t) for t in loaded.encoder.layers[0].tensors()} | {
            id(loaded.encoder.cls_token), id(loaded.encoder.pos_embed)}
        assert {id(p) for p in loaded.encoder.parameters() if p.tracked} == want
        x = np.random.default_rng(37).normal(size=(2, 4))
        np.testing.assert_array_equal(
            M.model_forward(x, model).data, M.model_forward(x, loaded).data)
        resaved = tmp_path / "resaved.weights"
        M.save_checkpoint(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()
        # a checkpoint's encoder entry reads back like a save_weights file's
        enc.save_weights(model.encoder, tmp_path / "encoder.weights")
        _, from_checkpoint = wio.load_tensors(path)
        _, from_weights = wio.load_tensors(tmp_path / "encoder.weights")
        assert enc.read_config(from_checkpoint, "encoder", EncoderConfig) == cfg
        assert enc.read_config(from_weights, "encoder", EncoderConfig) == cfg

    @pytest.mark.parametrize("name, wrong", [("adapter.layer0.weight", (3, 4, 7)),
                                             ("head.layer1.bias", (4,))],
                             ids=["adapter", "head"])
    def test_wrong_adapter_or_head_shape_is_named(self, tmp_path, name, wrong):
        path = tmp_path / "model.weights"
        M.save_checkpoint(toy_model(seed=38), path)
        tensors, meta = wio.load_tensors(path)
        expected = tensors[name].shape
        tensors[name] = np.zeros(wrong)
        wio.save_tensors(path, tensors, metadata=meta)
        with pytest.raises(DimensionError, match=re.escape(
                f"{name!r}: expected shape {expected}, found {wrong}")):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("key, edit", [
        ("adapter", lambda v: None),
        ("head", lambda v: v[:-1]),
        ("model", lambda v: "[]"),
        ("layer_range", lambda v: json.dumps({**json.loads(v), "step": 1})),
        ("encoder", lambda v: json.dumps({k: x for k, x in json.loads(v).items() if k != "heads"})),
        ("layer_range", lambda v: json.dumps({"start": 1, "end": 5})),
        ("layer_range", lambda v: json.dumps({"start": 2, "end": 1})),
        ("model", lambda v: json.dumps({**json.loads(v), "freeze_mode": "bogus"})),
    ], ids=["missing", "not_json", "not_object", "unknown_field", "missing_field",
            "range_past_depth", "range_reversed", "unknown_freeze_mode"])
    def test_bad_metadata_raises_config_error_naming_key(self, tmp_path, key, edit):
        path = tmp_path / "model.weights"
        M.save_checkpoint(toy_model(seed=39), path)
        tensors, meta = wio.load_tensors(path)
        value = edit(meta.pop(key))
        if value is not None:
            meta[key] = value
        wio.save_tensors(path, tensors, metadata=meta)
        with pytest.raises(ConfigError, match=repr(key)):
            M.load_checkpoint(path)


def _stored_config(key, field, value):
    """Load a file whose `key` metadata holds `field` = `value`: a checkpoint, or the
    encoder's own weights file when `key` is "weights"."""
    def load(tmp_path):
        path = tmp_path / "stored.weights"
        if key == "weights":
            enc.save_weights(enc.random_bundle(CFG, seed=40), path)
        else:
            M.save_checkpoint(toy_model(seed=40), path)
        tensors, meta = wio.load_tensors(path)
        stored = "encoder" if key == "weights" else key
        meta[stored] = json.dumps({**json.loads(meta[stored]), field: value})
        wio.save_tensors(path, tensors, metadata=meta)
        return enc.load_weights(path, CFG) if key == "weights" else M.load_checkpoint(path)
    return load


@pytest.mark.parametrize("make, error, named", [
    (lambda _: EncoderConfig(depth=1, dim=8, heads=0), ContractError, "EncoderConfig.heads"),
    (lambda _: EncoderConfig(depth=0, dim=8, heads=2), ContractError, "EncoderConfig.depth"),
    (lambda _: EncoderConfig(depth=1, dim=8, heads=2, patch=0), ContractError,
     "EncoderConfig.patch"),
    (lambda _: M.AdapterWeights.init(AdapterConfig(input_dim=-1, n_views=2)), ContractError,
     "AdapterConfig.input_dim"),
    (lambda _: AdapterConfig(input_dim=3, n_views=2, hidden_dim=0), ContractError,
     "AdapterConfig.hidden_dim"),
    (lambda _: HeadConfig(in_dim=0, n_classes=2), ContractError, "HeadConfig.in_dim"),
    (_stored_config("weights", "heads", 0), ConfigError, "'encoder': EncoderConfig.heads"),
    (_stored_config("encoder", "heads", 0), ConfigError, "'encoder': EncoderConfig.heads"),
    (_stored_config("adapter", "input_dim", -1), ConfigError,
     "'adapter': AdapterConfig.input_dim"),
    (_stored_config("head", "depth", 0), ConfigError, "'head': HeadConfig.depth"),
], ids=["encoder_heads", "encoder_depth", "encoder_patch", "adapter_input_dim",
        "adapter_hidden_dim", "head_in_dim", "load_weights_heads", "checkpoint_heads",
        "checkpoint_input_dim", "checkpoint_head_depth"])
def test_size_below_one_is_refused_naming_the_field(tmp_path, make, error, named):
    with pytest.raises(error, match=re.escape(named) + " must be >= 1"):
        make(tmp_path)


# valid fields of each sized config; a case replaces one of them
VALID_SIZES = {EncoderConfig: {"depth": 1, "dim": 8, "heads": 2},
               AdapterConfig: {"input_dim": 4, "n_views": 2},
               HeadConfig: {"in_dim": 8, "n_classes": 3},
               LayerRange: {"start": 0, "end": 1}}


@pytest.mark.parametrize("make, named", [
    (lambda: EncoderConfig(depth=2.5, dim=8, heads=2), "EncoderConfig.depth"),
    (lambda: EncoderConfig(depth="2", dim=8, heads=2), "EncoderConfig.depth"),
    (lambda: EncoderConfig(depth=1, dim=8, heads=2, max_seq=6.0), "EncoderConfig.max_seq"),
    (lambda: AdapterConfig(input_dim=np.int64(4), n_views=2), "AdapterConfig.input_dim"),
    (lambda: AdapterConfig(input_dim=4, n_views=True), "AdapterConfig.n_views"),
    (lambda: HeadConfig(in_dim=8, n_classes=3.0), "HeadConfig.n_classes"),
    (lambda: LayerRange(0, 1.5), "LayerRange.end"),
    (lambda: LayerRange(False, 1), "LayerRange.start"),
    # every other sized field, one each
    (lambda: EncoderConfig(depth=1, dim=8.0, heads=2), "EncoderConfig.dim"),
    (lambda: EncoderConfig(depth=1, dim=8, heads=np.int32(2)), "EncoderConfig.heads"),
    (lambda: EncoderConfig(depth=1, dim=8, heads=2, mlp_ratio=True), "EncoderConfig.mlp_ratio"),
    (lambda: EncoderConfig(depth=1, dim=8, heads=2, patch="4"), "EncoderConfig.patch"),
    (lambda: EncoderConfig(depth=1, dim=8, heads=2, channels=3.0), "EncoderConfig.channels"),
    (lambda: AdapterConfig(input_dim=4, n_views=2, depth=2.0), "AdapterConfig.depth"),
    (lambda: AdapterConfig(input_dim=4, n_views=2, hidden_dim=np.int64(5)),
     "AdapterConfig.hidden_dim"),
    (lambda: AdapterConfig(input_dim=4, n_views=2, out_dim=8.0), "AdapterConfig.out_dim"),
    (lambda: HeadConfig(in_dim=np.int64(8), n_classes=3), "HeadConfig.in_dim"),
    (lambda: HeadConfig(in_dim=8, n_classes=3, depth=False), "HeadConfig.depth"),
    (lambda: HeadConfig(in_dim=8, n_classes=3, hidden_dim=5.5), "HeadConfig.hidden_dim"),
    # None in every field whose default is not None
    *[(functools.partial(cls, **{**valid, f.name: None}), f"{cls.__name__}.{f.name}")
      for cls, valid in VALID_SIZES.items() for f in fields(cls) if f.default is not None],
], ids=["float_depth", "str_depth", "float_max_seq", "numpy_input_dim", "bool_n_views",
        "float_n_classes", "float_range_end", "bool_range_start", "float_dim", "numpy_heads",
        "bool_mlp_ratio", "str_patch", "float_channels", "float_adapter_depth",
        "numpy_adapter_hidden_dim", "float_out_dim", "numpy_in_dim", "bool_head_depth",
        "float_head_hidden_dim",
        *[f"null_{cls.__name__}.{f.name}" for cls in VALID_SIZES for f in fields(cls)
          if f.default is not None]])
def test_size_that_is_not_an_int_is_refused_naming_the_field(make, named):
    # exactly what a checkpoint's metadata holds, so a config that constructs also reloads
    with pytest.raises(ContractError, match=re.escape(named) + " must be an int"):
        make()
