import hashlib
import json
import math
import os
import platform
import re
import select
import signal
import sys
import threading
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import finite_diff_grad
from vistab import encoder as enc
from vistab import tensor as T
from vistab.encoder import EncoderConfig, LayerRange
from vistab import model as M
from vistab.errors import (CapacityError, ConfigError, ContractError, DimensionError,
                           MissingTensorError, WeightFormatError)
from vistab.tensor import Tape, Tensor, backward

TOY = EncoderConfig(depth=2, dim=8, heads=2, mlp_ratio=2, max_seq=6)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# every config a checkpoint stores, by its metadata key: the class and valid fields
STORED_CONFIGS = {
    "encoder": (EncoderConfig, asdict(TOY)),
    "adapter": (M.AdapterConfig,
                {"input_dim": 4, "n_views": 2, "depth": 2, "hidden_dim": 5, "out_dim": 8}),
    "head": (M.HeadConfig, {"in_dim": 8, "n_classes": 3, "depth": 2, "hidden_dim": 5}),
    "layer_range": (LayerRange, {"start": 0, "end": 1}),
}
WRONG_TYPES = {"str": "2", "bool": True, "float": 2.0, "list": [2], "null": None}


def reference_block(x, L, heads):
    """Straight-line numpy re-derivation of one pre-norm block."""

    def ln(v, gain, bias):
        mu = v.mean(axis=-1, keepdims=True)
        var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + 1e-6) * gain + bias

    def sm(v):
        e = np.exp(v - v.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    def gelu(v):
        from scipy.special import erf
        return v * 0.5 * (1 + erf(v / math.sqrt(2)))

    s, d = x.shape
    dh = d // heads
    h = ln(x, L.ln1_gain.data, L.ln1_bias.data)
    q, k, v = h @ L.wq.data + L.bq.data, h @ L.wk.data + L.bk.data, h @ L.wv.data + L.bv.data
    outs = []
    for i in range(heads):
        qi, ki, vi = (m[:, i * dh:(i + 1) * dh] for m in (q, k, v))
        a = sm(qi @ ki.T / math.sqrt(dh))
        outs.append(a @ vi)
    x = x + np.concatenate(outs, axis=1) @ L.wo.data + L.bo.data
    h = ln(x, L.ln2_gain.data, L.ln2_bias.data)
    x = x + gelu(h @ L.w1.data + L.b1.data) @ L.w2.data + L.b2.data
    return x


class TestEncoderForward:
    def test_zero_weights_residual_identity(self):
        bundle = enc.random_bundle(TOY, scale=0.0)
        t0 = Tensor(np.random.default_rng(0).normal(size=(2, 3, 8)))
        out = enc.encoder_forward(t0, bundle, LayerRange(0, 1))
        assert (out.data == t0.data).all()

    def test_matches_scalar_reference(self):
        cfg = EncoderConfig(depth=1, dim=4, heads=2, mlp_ratio=2, max_seq=4)
        bundle = enc.random_bundle(cfg, seed=3, scale=0.5)
        # non-trivial norms and biases
        rng = np.random.default_rng(4)
        for layer in bundle.layers:
            layer.ln1_gain.data[:] = rng.normal(1, 0.3, 4)
            layer.ln2_bias.data[:] = rng.normal(0, 0.3, 4)
            layer.bq.data[:] = rng.normal(size=4)
            layer.bo.data[:] = rng.normal(size=4)
        bundle.final_gain.data[:] = rng.normal(1, 0.3, 4)
        t0 = rng.normal(size=(3, 2, 4))

        got = enc.encoder_forward(Tensor(t0), bundle, LayerRange(0, 1)).data
        want = np.stack([reference_block(seq, bundle.layers[0], cfg.heads) for seq in t0])
        # final norm fires because end == depth
        mu = want.mean(axis=-1, keepdims=True)
        var = ((want - mu) ** 2).mean(axis=-1, keepdims=True)
        want = (want - mu) / np.sqrt(var + 1e-6) * bundle.final_gain.data + bundle.final_bias.data
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_slice_composition(self):
        bundle = enc.random_bundle(EncoderConfig(depth=4, dim=8, heads=2, max_seq=5),
                                   seed=5, scale=0.3)
        t0 = Tensor(np.random.default_rng(6).normal(size=(2, 4, 8)))
        whole = enc.encoder_forward(t0, bundle, LayerRange(0, 3))
        half = enc.encoder_forward(t0, bundle, LayerRange(0, 2))
        rest = enc.encoder_forward(half, bundle, LayerRange(2, 3))
        np.testing.assert_allclose(whole.data, rest.data, atol=1e-12)

    def test_output_shape_equals_input_shape(self):
        bundle = enc.random_bundle(TOY, seed=7)
        for rng_pair in [(0, 1), (1, 2), (0, 2)]:
            t0 = Tensor(np.random.default_rng(8).normal(size=(2, 5, 8)))
            out = enc.encoder_forward(t0, bundle, LayerRange(*rng_pair))
            assert out.shape == t0.shape

    def test_invalid_range(self):
        bundle = enc.random_bundle(TOY, seed=0)
        t0 = Tensor(np.zeros((1, 2, 8)))
        for bad in [(1, 1), (-1, 2), (0, 3)]:
            with pytest.raises(ContractError):
                enc.encoder_forward(t0, bundle, LayerRange(*bad))

    @pytest.mark.parametrize("cls_only", [False, True])
    def test_empty_sequences_are_refused(self, cls_only):
        bundle = enc.random_bundle(TOY, seed=0)
        with pytest.raises(DimensionError, match=re.escape("(2, 0, 8)")):
            enc.encoder_forward(Tensor(np.zeros((2, 0, 8))), bundle, LayerRange(0, 1),
                                cls_only=cls_only)

    def test_batched_equals_per_sequence(self):
        bundle = enc.random_bundle(TOY, seed=9, scale=0.3)
        rng = np.random.default_rng(10)
        batch = rng.normal(size=(3, 4, 8))
        full = enc.encoder_forward(Tensor(batch), bundle, LayerRange(0, 2)).data
        for i in range(3):
            one = enc.encoder_forward(Tensor(batch[i:i + 1]), bundle, LayerRange(0, 2)).data
            np.testing.assert_allclose(full[i:i + 1], one, atol=1e-12)

    @pytest.mark.parametrize("mode", ["frozen", "fine_tune"])
    def test_input_gradients_through_frozen_encoder(self, mode):
        # the fused blocks and the final norm's generic op, recorded the same way
        cfg = EncoderConfig(depth=1, dim=4, heads=2, mlp_ratio=2, max_seq=4)
        bundle = enc.random_bundle(cfg, seed=11, scale=0.3)
        bundle.set_tracked(mode == "fine_tune")
        rng = np.random.default_rng(12)
        t0 = rng.normal(size=(2, 3, 4))
        mask = Tensor(rng.normal(size=(2, 3, 4)))

        def f(x):
            return T.tsum(T.mul(enc.encoder_forward(x, bundle, LayerRange(0, 1)), mask))

        def assert_matches(got, want):
            denom = max(np.abs(want).max(), 1e-12)
            assert np.abs(got - want).max() / denom < 1e-4

        leaf = Tensor(t0, tracked=True)
        with Tape():
            loss = f(leaf)
        backward(loss)
        assert_matches(leaf.grad, finite_diff_grad(f, Tensor(t0), h=1e-5))
        if mode == "frozen":
            assert all(p.grad is None for p in bundle.parameters())
            return
        for p in bundle.parameters():
            def f_weight(w, p=p):
                saved, p.data = p.data, w.data
                try:
                    return f(Tensor(t0))
                finally:
                    p.data = saved

            want = finite_diff_grad(f_weight, p, h=1e-5)
            # pos_embed and cls_token are read before encoder_forward: no gradient here
            assert_matches(np.zeros_like(want) if p.grad is None else p.grad, want)


def generic_block(x, L, cfg):
    """One block composed from generic tape ops: the reference for the fused op."""
    lead, s = x.shape[:-2], x.shape[-2]

    def split(t):
        return T.swap_axes(T.reshape(t, lead + (s, cfg.heads, cfg.head_dim)), -3, -2)

    h = T.layer_norm(x, L.ln1_gain, L.ln1_bias)
    q, k, v = (split(T.add(T.matmul(h, w), b))
               for w, b in ((L.wq, L.bq), (L.wk, L.bk), (L.wv, L.bv)))
    scores = T.mul(T.matmul(q, T.swap_axes(k, -2, -1)), 1.0 / math.sqrt(cfg.head_dim))
    ctx = T.swap_axes(T.matmul(T.softmax(scores), v), -3, -2)
    x = T.add(x, T.add(T.matmul(T.reshape(ctx, lead + (s, cfg.dim)), L.wo), L.bo))
    h = T.gelu(T.add(T.matmul(T.layer_norm(x, L.ln2_gain, L.ln2_bias), L.w1), L.b1))
    return T.add(x, T.add(T.matmul(h, L.w2), L.b2))


def generic_forward(t0, bundle, layer_range):
    x = t0
    for i in range(layer_range.start, layer_range.end):
        x = generic_block(x, bundle.layers[i], bundle.config)
    if layer_range.end == bundle.config.depth:
        x = T.layer_norm(x, bundle.final_gain, bundle.final_bias)
    return x


def perturbed_bundle(cfg, seed):
    """Random weights with non-trivial LayerNorm gains and non-zero biases."""
    bundle = enc.random_bundle(cfg, seed=seed, scale=0.3)
    rng = np.random.default_rng(seed + 100)
    for layer in bundle.layers:
        for t in layer.tensors():
            if t.data.ndim == 1:
                t.data += rng.normal(0.0, 0.3, t.shape)
    bundle.final_gain.data += rng.normal(0.0, 0.3, cfg.dim)
    bundle.final_bias.data += rng.normal(0.0, 0.3, cfg.dim)
    return bundle


def taped_grads(forward, t0, mask, bundle):
    """Output, input gradient and every bundle gradient of sum(forward(x) * mask)."""
    x = Tensor(t0, tracked=True)
    with Tape() as tape:
        out = forward(x)
        loss = T.tsum(T.mul(out, Tensor(mask)))
    backward(loss)
    bundle_grads = [p.grad for p in bundle.parameters()]
    T.zero_grads(bundle.parameters())
    return out.data, x.grad, bundle_grads, len(tape)


class TestFusedBlock:
    CFG = EncoderConfig(depth=3, dim=12, heads=3, mlp_ratio=2, max_seq=6)

    @pytest.mark.parametrize("shape", [(3, 5, 12), (1, 5, 12)], ids=["batched", "batch_of_one"])
    @pytest.mark.parametrize("layer_range", [LayerRange(0, 2), LayerRange(1, 3)],
                             ids=["inner", "to_depth"])
    def test_matches_generic_composition(self, shape, layer_range):
        bundle = perturbed_bundle(self.CFG, seed=40)
        rng = np.random.default_rng(41)
        t0, mask = rng.normal(size=shape), rng.normal(size=shape)
        bundle.set_tracked(True)
        got = taped_grads(lambda x: enc.encoder_forward(x, bundle, layer_range),
                          t0, mask, bundle)
        want = taped_grads(lambda x: generic_forward(x, bundle, layer_range),
                           t0, mask, bundle)
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-10)
        np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-10)
        blocks = layer_range.end - layer_range.start
        final = layer_range.end == self.CFG.depth
        assert sum(g is not None for g in got[2]) == 16 * blocks + 2 * final
        for g, w in zip(got[2], want[2]):
            assert (g is None) == (w is None)
            if w is not None:
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-10)
        # one tape record per block, the final norm when it fires, then mul and tsum
        assert got[3] == blocks + final + 2

    def test_frozen_block_leaves_weights_untouched(self):
        bundle = perturbed_bundle(self.CFG, seed=42)
        bundle.set_tracked(False)
        before = bundle.checksum()
        rng = np.random.default_rng(43)
        t0, mask = rng.normal(size=(2, 4, 12)), rng.normal(size=(2, 4, 12))
        got = taped_grads(lambda x: enc.encoder_forward(x, bundle, LayerRange(0, 3)),
                          t0, mask, bundle)
        want = taped_grads(lambda x: generic_forward(x, bundle, LayerRange(0, 3)),
                           t0, mask, bundle)
        np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-10)
        assert all(g is None for g in got[2])
        assert bundle.checksum() == before

    def test_untracked_input_gets_no_grad(self):
        bundle = perturbed_bundle(self.CFG, seed=44)
        bundle.set_tracked(True)
        x = Tensor(np.random.default_rng(45).normal(size=(1, 4, 12)))
        with Tape():
            loss = T.tsum(enc.encoder_forward(x, bundle, LayerRange(0, 1)))
        backward(loss)
        assert x.grad is None
        assert all(p.grad is not None for p in bundle.layers[0].tensors())


def pooled_model(mode, cfg=TestFusedBlock.CFG, input_dim=7, seed=50,
                 layer_range=LayerRange(0, 2)):
    """A small model on a perturbed encoder, in freeze mode `mode`."""
    model = M.build_model(
        M.AdapterConfig(input_dim=input_dim, n_views=cfg.max_seq - 1, out_dim=cfg.dim),
        M.HeadConfig(in_dim=cfg.dim, n_classes=3), bundle=perturbed_bundle(cfg, seed=seed),
        layer_range=layer_range, seed=seed)
    return M.set_freeze_mode(model, mode)


def record(model, X, y):
    """(tape's loss, logits) of one taped forward."""
    with Tape():
        logits = M.model_forward(X, model)
        return T.cross_entropy(logits, y), logits


def grads_of(model, loss):
    """Every parameter gradient (None where none reaches it) after backward(loss)."""
    backward(loss)
    grads = [p.grad for p in model.parameters()]
    T.zero_grads(model.parameters())
    return grads


def run_on_threads(run, n):
    """Run ``run(0)`` .. ``run(n - 1)`` on n threads with a short switch interval."""
    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert np.array_equal(g, w)


class TestBufferReuse:
    """A block's arrays never hold two live values at once, and warm steps reuse the
    memory of the last."""

    @pytest.mark.parametrize("mode", ["frozen", "fine_tune"])
    def test_overlapping_tapes_match_serial_runs(self, mode):
        model = pooled_model(mode)
        rng = np.random.default_rng(51)
        Xa, ya = rng.normal(size=(13, 7)), rng.integers(0, 3, 13)
        Xb, yb = rng.normal(size=(5, 7)), rng.integers(0, 3, 5)
        X_eval = rng.normal(size=(9, 7))

        loss_a, logits_a = record(model, Xa, ya)
        want_a = logits_a.data.copy(), grads_of(model, loss_a)
        loss_b, logits_b = record(model, Xb, yb)
        want_b = logits_b.data.copy(), grads_of(model, loss_b)
        want_eval = M.model_forward(X_eval, model).data

        # A and B are both recorded, and an untaped forward runs, before either backward
        loss_a, logits_a = record(model, Xa, ya)
        loss_b, logits_b = record(model, Xb, yb)
        got_eval = M.model_forward(X_eval, model).data
        got_b = logits_b.data, grads_of(model, loss_b)
        got_a = logits_a.data, grads_of(model, loss_a)

        assert np.array_equal(got_eval, want_eval)
        for got, want in ((got_a, want_a), (got_b, want_b)):
            assert np.array_equal(got[0], want[0])
            assert_bit_identical(got[1], want[1])
            # (w, b) of the adapter and the head; fine_tune adds 2 blocks, pos and CLS
            assert sum(g is not None for g in got[1]) == 4 + (34 if mode == "fine_tune" else 0)

    def test_held_block_output_keeps_its_values(self):
        bundle = perturbed_bundle(TestFusedBlock.CFG, seed=52)
        rng = np.random.default_rng(53)
        x = Tensor(rng.normal(size=(4, 5, 12)), tracked=True)
        with Tape():
            held_taped = enc.encoder_forward(x, bundle, LayerRange(0, 1))
            loss = T.tsum(held_taped)
        held = enc.encoder_forward(Tensor(x.data), bundle, LayerRange(0, 1))
        before = held_taped.data.copy(), held.data.copy()
        backward(loss)
        for n in (4, 3, 6, 1):
            y = Tensor(rng.normal(size=(n, 5, 12)), tracked=True)
            with Tape():
                loss = T.tsum(enc.encoder_forward(y, bundle, LayerRange(0, 2)))
            backward(loss)
            enc.encoder_forward(Tensor(y.data), bundle, LayerRange(0, 2))
        assert np.array_equal(held_taped.data, before[0])
        assert np.array_equal(held.data, before[1])

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's mallopt")
    @pytest.mark.parametrize("mode", ["frozen", "fine_tune"])
    def test_warm_steps_fault_in_almost_no_pages(self, mode):
        # glibc trims the heap top a step frees unless vistab.tensor's thresholds hold
        import resource  # Unix only

        model = pooled_model(mode, EncoderConfig(depth=2, dim=64, heads=4, max_seq=17),
                             seed=62)
        rng = np.random.default_rng(63)
        X, y = rng.normal(size=(64, 7)), rng.integers(0, 3, 64)
        faults = []
        for _ in range(25):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            grads_of(model, record(model, X, y)[0])
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert np.median(faults[5:]) < 50, faults

    def test_untaped_forwards_on_four_threads_match_serial(self):
        model = pooled_model("frozen", EncoderConfig(depth=2, dim=64, heads=4, max_seq=9),
                             seed=56)
        rng = np.random.default_rng(57)
        inputs = [[rng.normal(size=(rng.integers(1, 33), 7)) for _ in range(10)]
                  for _ in range(4)]
        want = [[M.model_forward(X, model).data for X in xs] for xs in inputs]
        got = [[] for _ in inputs]
        start = threading.Barrier(len(inputs))

        def run(i):
            start.wait()
            got[i].extend(M.model_forward(X, model).data for X in inputs[i])

        run_on_threads(run, len(inputs))
        for g, w in zip(got, want):
            assert len(g) == len(w)
            assert all(np.array_equal(a, b) for a, b in zip(g, w))


def every_row(monkeypatch):
    """Make model_forward run the encoder as without `cls_only`, every block on every row."""
    forward = enc.encoder_forward

    def full(t0, bundle, layer_range, **kwargs):
        return forward(t0, bundle, layer_range)

    monkeypatch.setattr(enc, "encoder_forward", full)


class TestClsOnly:
    """The model reads the CLS row, so the slice's last block computes that row alone,
    with the outputs and gradients of the path that runs every row."""

    def test_encoder_returns_the_cls_row(self):
        bundle = perturbed_bundle(TestFusedBlock.CFG, seed=90)
        bundle.set_tracked(True)
        rng = np.random.default_rng(91)
        t0, mask = rng.normal(size=(4, 5, 12)), rng.normal(size=(4, 1, 12))
        for layer_range in (LayerRange(0, 2), LayerRange(1, 3), LayerRange(2, 3)):
            got = taped_grads(lambda x: enc.encoder_forward(x, bundle, layer_range,
                                                            cls_only=True), t0, mask, bundle)
            want = taped_grads(lambda x: T.narrow(enc.encoder_forward(x, bundle, layer_range),
                                                  1, 0, 1), t0, mask, bundle)
            assert got[0].shape == (4, 1, 12)
            np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(got[1], want[1], rtol=1e-10, atol=1e-14)
            for g, w in zip(got[2], want[2]):
                assert (g is None) == (w is None)
                if w is not None:
                    np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("batch", [1, 2, 16])
    @pytest.mark.parametrize("layer_range", [LayerRange(0, 2), LayerRange(1, 3)],
                             ids=["inner", "to_depth"])
    @pytest.mark.parametrize("mode", ["frozen", "fine_tune"])
    def test_model_matches_the_full_path(self, monkeypatch, mode, layer_range, batch):
        model = pooled_model(mode, seed=92, layer_range=layer_range)
        rng = np.random.default_rng(93)
        X, y = rng.normal(size=(batch, 7)), rng.integers(0, 3, batch)
        got = step_results(model, X, y)
        every_row(monkeypatch)
        want = step_results(model, X, y)

        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
        assert [g is None for g in got[2]] == [w is None for w in want[2]]
        for g, w in zip(got[2], want[2]):
            if w is not None:
                # attn.k.bias gets an exact zero, here about 1e-16
                np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-14)


def split_in(monkeypatch, k):
    """Make every block split its batch in k parts (or b, when fewer), whatever the
    machine, the environment and the block's size."""
    monkeypatch.setattr(enc, "_parts", lambda b, s, d: max(1, min(k, b)))


def blas_env(monkeypatch, **env):
    """Set OpenBLAS's three thread-count variables: those in `env`, the others unset."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        if name in env:
            monkeypatch.setenv(name, env[name])
        else:
            monkeypatch.delenv(name, raising=False)


def step_results(model, X, y):
    """(logits, untaped logits, every parameter gradient) of one step on (X, y)."""
    loss, logits = record(model, X, y)
    return logits.data, M.model_forward(X, model).data, grads_of(model, loss)


def is_encoder_param(model):
    encoder = {id(p) for p in model.encoder.parameters()}
    return [id(p) in encoder for p in model.parameters()]


class TestBatchSplit:
    """A block's batch split across threads gives the unsplit arithmetic."""

    @pytest.mark.parametrize("batch", [1, 2, 7, 16])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("mode", ["frozen", "fine_tune"])
    def test_split_matches_inline(self, monkeypatch, mode, k, batch):
        model = pooled_model(mode, seed=70)
        rng = np.random.default_rng(71)
        X, y = rng.normal(size=(batch, 7)), rng.integers(0, 3, batch)
        split_in(monkeypatch, 1)
        want = step_results(model, X, y)
        split_in(monkeypatch, k)
        got = step_results(model, X, y)

        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert sum(g is not None for g in got[2]) == 4 + (34 if mode == "fine_tune" else 0)
        for g, w, in_encoder in zip(got[2], want[2], is_encoder_param(model)):
            assert (g is None) == (w is None)
            if w is None:
                continue
            if in_encoder and batch > 1:  # the sum over the parts' rows, in another order
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)
            else:
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("batch, k, want", [
        (2, 2, [2]), (3, 2, [3]), (4, 2, [2, 2]), (5, 3, [2, 3]), (7, 3, [2, 2, 3])])
    def test_cls_only_parts_hold_two_sequences(self, monkeypatch, batch, k, want):
        # a one-row product goes to gemv, whose last bits differ from gemm's
        split_in(monkeypatch, k)
        sizes = []
        part = enc._block_part

        def recorded(x, layer, cfg, sq, *rest):
            if sq == 1:
                sizes.append(len(x))
            return part(x, layer, cfg, sq, *rest)

        monkeypatch.setattr(enc, "_block_part", recorded)
        M.model_forward(np.random.default_rng(96).normal(size=(batch, 7)),
                        pooled_model("frozen", seed=97))
        assert sorted(sizes) == want

    def test_public_functions_run_on_the_calling_thread_only(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import bench_trace

        split_in(monkeypatch, 2)
        seen, parts = set(), set()

        def recorder(fn, where):
            def recorded(*args, **kwargs):
                where.add(threading.get_ident())
                return fn(*args, **kwargs)
            return recorded

        for owner, attr, _, _ in bench_trace._targets():
            raw = owner.__dict__[attr]
            monkeypatch.setattr(owner, attr, classmethod(recorder(raw.__func__, seen))
                                if isinstance(raw, classmethod) else recorder(raw, seen))
        monkeypatch.setattr(enc, "_block_part", recorder(enc._block_part, parts))
        rng = np.random.default_rng(72)
        X, y = rng.normal(size=(8, 7)), rng.integers(0, 3, 8)
        for mode in ("frozen", "fine_tune"):
            model = pooled_model(mode, seed=73)
            grads_of(model, record(model, X, y)[0])
        assert seen == {threading.get_ident()}
        assert len(parts) >= 2  # the blocks did split: the calling thread and a worker

    def test_untaped_forwards_from_three_threads_match_serial(self, monkeypatch):
        split_in(monkeypatch, 2)
        model = pooled_model("frozen", EncoderConfig(depth=2, dim=32, heads=4, max_seq=9),
                             seed=74)
        rng = np.random.default_rng(75)
        inputs = [[rng.normal(size=(rng.integers(2, 20), 7)) for _ in range(8)]
                  for _ in range(3)]
        want = [[M.model_forward(X, model).data for X in xs] for xs in inputs]
        got = [[] for _ in inputs]
        start = threading.Barrier(len(inputs))

        def run(i):
            start.wait()
            got[i].extend(M.model_forward(X, model).data for X in inputs[i])

        run_on_threads(run, len(inputs))
        for g, w in zip(got, want):
            assert len(g) == len(w)
            assert all(np.array_equal(a, b) for a, b in zip(g, w))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_makes_its_own_workers(self, monkeypatch):
        split_in(monkeypatch, 2)
        model = pooled_model("frozen", seed=79)
        X = np.random.default_rng(80).normal(size=(6, 7))
        want = M.model_forward(X, model).data
        assert enc._workers.cache_info().currsize  # the parent's threads, which a child lacks
        read, write = os.pipe()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # forking with threads running
            pid = os.fork()
        if pid == 0:
            ok = False
            try:
                ok = np.array_equal(M.model_forward(X, model).data, want)
            finally:
                os.write(write, b"1" if ok else b"0")
                os._exit(0)
        os.close(write)
        verdict = b"hung"  # unless the child answers within a minute
        try:
            if select.select([read], [], [], 60)[0]:
                verdict = os.read(read, 1)
        finally:
            os.close(read)
            if verdict == b"hung":
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert verdict == b"1"

    @pytest.mark.parametrize("cpus, env, dim", [
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 192),  # one CPU
        (2, {}, 192),  # OpenBLAS not told its count: a thread per CPU already
        (2, {"OPENBLAS_NUM_THREADS": "2"}, 192),  # OpenBLAS's threads fill both CPUs
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 12),  # parts below the break-even
    ], ids=["one_cpu", "blas_unset", "blas_on_every_cpu", "small_block"])
    def test_unsplit_blocks_start_no_thread(self, monkeypatch, cpus, env, dim):
        enc._workers.cache_clear()
        monkeypatch.setattr(enc, "_cpus", lambda: cpus)
        blas_env(monkeypatch, **env)
        cfg = EncoderConfig(depth=2, dim=dim, heads=3, mlp_ratio=2, max_seq=17)
        model = pooled_model("fine_tune", cfg, seed=78)
        rng = np.random.default_rng(76)
        X, y = rng.normal(size=(16, 7)), rng.integers(0, 3, 16)
        threads = set(threading.enumerate())
        grads_of(model, record(model, X, y)[0])
        M.model_forward(X, model)
        assert enc._workers.cache_info().currsize == 0
        assert set(threading.enumerate()) <= threads  # no thread started

    def test_no_encoder_starts_no_thread(self, monkeypatch):
        enc._workers.cache_clear()
        split_in(monkeypatch, 2)
        rng = np.random.default_rng(76)
        X, y = rng.normal(size=(6, 7)), rng.integers(0, 3, 6)
        no_encoder = M.build_model(M.AdapterConfig(input_dim=7, n_views=3, out_dim=12),
                                   M.HeadConfig(in_dim=12, n_classes=3), seed=77)
        threads = set(threading.enumerate())
        grads_of(no_encoder, record(no_encoder, X, y)[0])
        assert enc._workers.cache_info().currsize == 0
        assert set(threading.enumerate()) <= threads

    def test_no_affinity_call_counts_one_cpu(self, monkeypatch):
        enc._workers.cache_clear()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        blas_env(monkeypatch, OPENBLAS_NUM_THREADS="1")
        assert enc._cpus() == 1
        assert enc._parts(16, 17, 192) == 1  # frozen_train's blocks, split on two CPUs
        cfg = EncoderConfig(depth=2, dim=192, heads=3, mlp_ratio=2, max_seq=17)
        model = pooled_model("frozen", cfg, seed=98)
        rng = np.random.default_rng(99)
        X, y = rng.normal(size=(16, 7)), rng.integers(0, 3, 16)
        threads = set(threading.enumerate())
        grads_of(model, record(model, X, y)[0])
        assert enc._workers.cache_info().currsize == 0
        assert set(threading.enumerate()) <= threads

    def test_empty_batch_gives_empty_logits(self, monkeypatch):
        monkeypatch.setattr(enc, "_cpus", lambda: 2)
        blas_env(monkeypatch, OPENBLAS_NUM_THREADS="1")
        model = pooled_model("fine_tune", seed=81)
        X = np.empty((0, 7))
        assert M.model_forward(X, model).shape == (0, 3)
        with Tape():
            logits = M.model_forward(X, model)
            total = T.tsum(logits)
        assert logits.shape == (0, 3)
        grads = [g for g in grads_of(model, total) if g is not None]
        assert len(grads) == 4 + 34  # as for any batch
        assert not any(g.any() for g in grads)


@pytest.mark.parametrize("cpus, env, shape, want", [
    (2, {"OPENBLAS_NUM_THREADS": "1"}, (16, 17, 192), 2),  # frozen_train's ViT-Tiny blocks
    (1, {"OPENBLAS_NUM_THREADS": "1"}, (16, 17, 192), 1),
    (64, {"OPENBLAS_NUM_THREADS": "1"}, (16, 17, 192), 2),  # never more parts than measured
    (2, {}, (16, 17, 192), 1),
    (2, {"OPENBLAS_NUM_THREADS": "2"}, (16, 17, 192), 1),
    (4, {"OPENBLAS_NUM_THREADS": "2"}, (16, 17, 192), 2),
    (2, {"OMP_NUM_THREADS": "1"}, (16, 17, 192), 2),
    (2, {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"},
     (16, 17, 192), 2),  # OpenBLAS's order: the first positive count
    (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, (16, 17, 192), 1),
    (2, {"OPENBLAS_NUM_THREADS": "1"}, (4, 17, 192), 1),  # 6,528 rows x dim a part
    (2, {"OPENBLAS_NUM_THREADS": "1"}, (6, 17, 192), 2),  # 9,792
    (2, {"OPENBLAS_NUM_THREADS": "1"}, (1, 64, 512), 1),  # one sequence splits no further
    (2, {"OPENBLAS_NUM_THREADS": "1"}, (0, 17, 192), 1),
], ids=["vit_tiny", "one_cpu", "many_cpus", "blas_unset", "blas_on_every_cpu",
        "blas_on_half_the_cpus", "omp_count", "first_positive_count", "openblas_count_first",
        "part_below_break_even", "part_above_break_even", "one_sequence", "empty"])
def test_part_count(monkeypatch, cpus, env, shape, want):
    monkeypatch.setattr(enc, "_cpus", lambda: cpus)
    blas_env(monkeypatch, **env)
    assert enc._parts(*shape) == want


class TestPatchEmbed:
    CFG = EncoderConfig(depth=1, dim=4, heads=1, max_seq=5, patch=2, channels=1)

    def test_patch_counting(self):
        bundle = enc.random_bundle(self.CFG, seed=0, with_patch=True)
        imgs = np.arange(32.0).reshape(2, 4, 4, 1)
        flat = enc.flatten_patches(imgs, 2)
        assert flat.shape == (2, 4, 4)
        tokens = enc.patch_embed(Tensor(imgs), bundle)
        assert tokens.shape == (2, 4, 4)

    def test_identity_projection_returns_flattened_patches(self):
        bundle = enc.random_bundle(self.CFG, seed=0, with_patch=True)
        bundle.patch_proj = Tensor(np.eye(4))
        bundle.patch_bias = Tensor(np.zeros(4))
        imgs = np.arange(32.0).reshape(2, 4, 4, 1)
        tokens = enc.patch_embed(Tensor(imgs), bundle)
        np.testing.assert_array_equal(tokens.data, enc.flatten_patches(imgs, 2))
        # row-major patch grid: each image's first patch is its top-left block
        np.testing.assert_array_equal(tokens.data[0, 0], [0.0, 1.0, 4.0, 5.0])
        np.testing.assert_array_equal(tokens.data[1, 0], [16.0, 17.0, 20.0, 21.0])

    def test_matches_flatten_then_matmul_oracle(self):
        cfg = EncoderConfig(depth=1, dim=6, heads=1, max_seq=7, patch=3, channels=2)
        bundle = enc.random_bundle(cfg, seed=1, with_patch=True)
        rng = np.random.default_rng(2)
        imgs = rng.normal(size=(3, 6, 9, 2))  # three distinct non-square images
        got = enc.patch_embed(Tensor(imgs), bundle).data
        # each patch cut out by hand, grid row by grid row, flattened (row, column, channel)
        patches = np.array([[img[r:r + 3, c:c + 3].reshape(-1)
                             for r in range(0, 6, 3) for c in range(0, 9, 3)] for img in imgs])
        want = patches @ bundle.patch_proj.data + bundle.patch_bias.data
        assert got.shape == (3, 6, 6)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_indivisible_resolution(self):
        bundle = enc.random_bundle(self.CFG, seed=0, with_patch=True)
        with pytest.raises(DimensionError):
            enc.patch_embed(Tensor(np.zeros((1, 5, 4, 1))), bundle)


class TestAssembleImageSequence:
    def test_zero_tokens_rejected(self):
        bundle = enc.random_bundle(TOY, seed=0)
        with pytest.raises(CapacityError):
            enc.assemble_sequence(Tensor(np.zeros((2, 0, 8))), bundle)

    def test_too_long_rejected(self):
        bundle = enc.random_bundle(TOY, seed=0)
        with pytest.raises(CapacityError):
            enc.assemble_sequence(Tensor(np.zeros((2, TOY.max_seq, 8))), bundle)

    def test_zero_pos_and_cls_is_prepend(self):
        bundle = enc.random_bundle(TOY, scale=0.0)
        tokens = np.random.default_rng(0).normal(size=(2, 3, 8))
        seq = enc.assemble_sequence(Tensor(tokens), bundle)
        np.testing.assert_array_equal(seq.data[:, 0], np.zeros((2, 8)))
        np.testing.assert_array_equal(seq.data[:, 1:], tokens)

    def test_rows_are_elementwise_sums(self):
        bundle = enc.random_bundle(TOY, seed=13)
        tokens = np.random.default_rng(14).normal(size=(2, 2, 8))
        seq = enc.assemble_sequence(Tensor(tokens), bundle)
        pos = bundle.pos_embed.data
        for i in range(2):
            np.testing.assert_allclose(seq.data[i, 0], bundle.cls_token.data[0] + pos[0])
            np.testing.assert_allclose(seq.data[i, 1], tokens[i, 0] + pos[1])
            np.testing.assert_allclose(seq.data[i, 2], tokens[i, 1] + pos[2])


@pytest.mark.parametrize("entry", ["model_forward", "assemble_sequence", "encoder_forward",
                                   "patch_embed"])
def test_forward_entry_points_refuse_the_unbatched_layout(entry):
    cfg = EncoderConfig(depth=1, dim=8, heads=2, max_seq=6, patch=2, channels=1)
    bundle = enc.random_bundle(cfg, seed=0, with_patch=True)
    model = M.build_model(M.AdapterConfig(input_dim=4, n_views=3, out_dim=8),
                          M.HeadConfig(in_dim=8, n_classes=2), bundle=bundle)
    call, unbatched = {
        "model_forward": (lambda x: M.model_forward(x, model), (4,)),
        "assemble_sequence": (lambda x: enc.assemble_sequence(x, bundle), (3, 8)),
        "encoder_forward": (lambda x: enc.encoder_forward(x, bundle, LayerRange(0, 1)), (4, 8)),
        "patch_embed": (lambda x: enc.patch_embed(x, bundle), (4, 4, 1)),
    }[entry]
    call(Tensor(np.zeros((1,) + unbatched)))  # the same input as a batch of one runs
    with pytest.raises(DimensionError, match=re.escape(str(unbatched))):
        call(Tensor(np.zeros(unbatched)))


def flat_digest(bundle) -> str:
    """One SHA-256 over every tensor's name and then its bytes, in sorted-name order: a
    digest that changes with any drawn value or its order, to pin the draw order."""
    h = hashlib.sha256()
    for name, arr in sorted(bundle.named_tensors().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def two_level_digest(bundle) -> str:
    """``EncoderBundle.checksum``'s definition: SHA-256 over each name and then the
    SHA-256 digest of its tensor's bytes, in sorted-name order."""
    h = hashlib.sha256()
    for name, arr in sorted(bundle.named_tensors().items()):
        h.update(name.encode())
        h.update(hashlib.sha256(np.ascontiguousarray(arr).tobytes()).digest())
    return h.hexdigest()


def distinct_bundle():
    """A TOY bundle with the patch projection whose every value is drawn, so no two
    tensors hold the same bytes (a fresh bundle's biases are all zeros)."""
    bundle = enc.random_bundle(TOY, seed=25, with_patch=True)
    rng = np.random.default_rng(26)
    for t in bundle.parameters():
        t.data[...] = rng.normal(size=t.shape)
    return bundle


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        bundle = enc.random_bundle(TOY, seed=15, with_patch=True)
        path = tmp_path / "enc.weights"
        enc.save_weights(bundle, path)
        loaded = enc.load_weights(path, TOY)
        assert loaded.checksum() == bundle.checksum()
        assert loaded.load_checksum == bundle.checksum()
        for a, b in zip(bundle.parameters(), loaded.parameters()):
            assert (a.data == b.data).all()
        enc.save_weights(loaded, tmp_path / "resaved.weights")
        assert (tmp_path / "resaved.weights").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("cfg, seed, with_patch, digest", [
        (EncoderConfig(depth=12, dim=192, heads=3, max_seq=17), 0, False,
         "e91fbdf4525652280d8a3931f8cda7f9bd260baea79394607c77d9ee3fadbdd4"),
        (TOY, 3, True, "d7db444f6e54d1d9777648677b4606f6b48ee17d0bdf2d9e95f16d0a7080e81c"),
    ], ids=["vit_tiny", "toy_with_patch"])
    def test_random_bundle_draw_order_is_pinned(self, cfg, seed, with_patch, digest):
        assert flat_digest(enc.random_bundle(cfg, seed=seed, with_patch=with_patch)) == digest

    def test_checksum_matches_hashlib_reference(self):
        bundle = enc.random_bundle(TOY, seed=21, with_patch=True)
        assert bundle.checksum() == two_level_digest(bundle)

    def test_checksum_is_the_same_inline_and_split(self, monkeypatch):
        bundle = enc.random_bundle(TOY, seed=24, with_patch=True)
        digests = set()
        for cpus in (1, 2):
            monkeypatch.setattr(enc, "_cpus", lambda: cpus)
            digests.add(bundle.checksum())
        assert digests == {two_level_digest(bundle)}

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_checksum_sees_any_flipped_bit(self, data):
        bundle = distinct_bundle()
        before = bundle.checksum()
        t = data.draw(st.sampled_from(bundle.parameters()))
        bits = t.data.reshape(-1).view(np.uint64)
        bits[data.draw(st.integers(0, bits.size - 1))] ^= np.uint64(1) << np.uint64(
            data.draw(st.integers(0, 63)))
        assert bundle.checksum() != before

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_checksum_sees_a_swap_of_same_shaped_tensors(self, data):
        bundle = distinct_bundle()
        before = bundle.checksum()
        params = bundle.parameters()
        a = data.draw(st.sampled_from(
            [p for p in params if sum(q.shape == p.shape for q in params) > 1]))
        b = data.draw(st.sampled_from([q for q in params if q is not a and q.shape == a.shape]))
        a.data, b.data = b.data, a.data
        assert bundle.checksum() != before

    def test_optional_patch_proj_omitted(self, tmp_path):
        bundle = enc.random_bundle(TOY, seed=16, with_patch=False)
        path = tmp_path / "nopatch.weights"
        enc.save_weights(bundle, path)
        loaded = enc.load_weights(path, TOY)
        assert loaded.patch_proj is None and loaded.patch_bias is None

    def test_missing_tensor_name(self, tmp_path):
        from vistab import weights as wio
        bundle = enc.random_bundle(TOY, seed=17)
        tensors = bundle.named_tensors()
        del tensors["layers.1.mlp.fc2.bias"]
        path = tmp_path / "partial.weights"
        wio.save_tensors(path, tensors)
        with pytest.raises(MissingTensorError, match="layers.1.mlp.fc2.bias"):
            enc.load_weights(path, TOY)

    def test_shape_mismatch_lists_expected_and_found(self, tmp_path):
        from vistab import weights as wio
        bundle = enc.random_bundle(TOY, seed=18)
        path = tmp_path / "mismatch.weights"
        wio.save_tensors(path, bundle.named_tensors())  # no config of its own to compare
        wrong = EncoderConfig(depth=2, dim=16, heads=2, mlp_ratio=2, max_seq=6)
        with pytest.raises(DimensionError, match=r"expected.*found|\(16"):
            enc.load_weights(path, wrong)

    @pytest.mark.parametrize("wrong, named", [
        (EncoderConfig(depth=2, dim=8, heads=4, mlp_ratio=2, max_seq=6), "heads 2 in the file, 4"),
        (EncoderConfig(depth=2, dim=16, heads=2, mlp_ratio=2, max_seq=9),
         "dim 8 in the file, 16 requested, max_seq 6 in the file, 9 requested"),
    ], ids=["shapeless_field", "two_fields"])
    def test_config_differing_from_the_files_names_the_fields(self, tmp_path, wrong, named):
        path = tmp_path / "enc.weights"
        enc.save_weights(enc.random_bundle(TOY, seed=22), path)
        with pytest.raises(ConfigError, match=re.escape(named)):
            enc.load_weights(path, wrong)

    def test_file_without_config_loads_with_the_given_one(self, tmp_path):
        from vistab import weights as wio
        bundle = enc.random_bundle(TOY, seed=23)
        path = tmp_path / "renamed.weights"
        wio.save_tensors(path, bundle.named_tensors())
        assert enc.load_weights(path, TOY).checksum() == bundle.checksum()

    def test_truncated_bundle_file(self, tmp_path):
        bundle = enc.random_bundle(TOY, seed=19)
        path = tmp_path / "trunc.weights"
        enc.save_weights(bundle, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(WeightFormatError):
            enc.load_weights(path, TOY)

    def test_metadata_round_trips_config(self, tmp_path):
        from vistab import weights as wio
        bundle = enc.random_bundle(TOY, seed=20)
        path = tmp_path / "meta.weights"
        enc.save_weights(bundle, path)
        _, meta = wio.load_tensors(path)
        assert enc.read_config(meta, "encoder", EncoderConfig) == TOY

    @pytest.mark.parametrize("key, field, value", [
        pytest.param(key, f.name, value, id=f"{key}.{f.name}-{kind}")
        for key, (cls, _) in STORED_CONFIGS.items() for f in fields(cls)
        for kind, value in WRONG_TYPES.items()
        if not (value is None and f.default is None)])  # null is a None default's own value
    def test_metadata_value_of_wrong_type_names_field(self, key, field, value):
        cls, valid = STORED_CONFIGS[key]
        stored = {key: json.dumps({**valid, field: value})}
        with pytest.raises(ConfigError, match=re.escape(
                f"'{key}': {cls.__name__}.{field} must be an int")):
            enc.read_config(stored, key, cls)

    @pytest.mark.parametrize("key", ["adapter", "head"])
    def test_optional_int_accepts_null(self, key):
        cls, valid = STORED_CONFIGS[key]
        values = {**valid, "hidden_dim": None}
        got = enc.read_config({key: json.dumps(values)}, key, cls)
        assert got == cls(**values)
        assert json.loads(json.dumps(asdict(got))) == values
