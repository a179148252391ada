import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vistab import tensor as T
from vistab.errors import ContractError, DimensionError, TapeError
from vistab.tensor import Tape, Tensor, backward, finite_diff_grad


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    got, want = np.asarray(got), np.asarray(want)
    denom = max(np.abs(want).max(), 1e-12)
    return float(np.abs(got - want).max() / denom)


def grad_of(f, x: np.ndarray) -> np.ndarray:
    leaf = Tensor(x, tracked=True)
    with Tape():
        loss = f(leaf)
    backward(loss)
    return leaf.grad


class TestMatmul:
    def test_identity(self):
        out = T.matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_dot_product(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a0, b0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        b = Tensor(b0)

        got = grad_of(lambda a: T.tsum(T.matmul(a, b)), a0)
        want = finite_diff_grad(lambda a: T.tsum(T.matmul(a, b)), Tensor(a0), h=1e-5)
        assert rel_err(got, want) < 1e-6

        a = Tensor(a0)
        got_b = grad_of(lambda bb: T.tsum(T.matmul(a, bb)), b0)
        want_b = finite_diff_grad(lambda bb: T.tsum(T.matmul(a, bb)), Tensor(b0), h=1e-5)
        assert rel_err(got_b, want_b) < 1e-6


    def test_gradient_sums_over_a_broadcast_size_one_batch_axis(self):
        rng = np.random.default_rng(1)
        a0, b0 = rng.normal(size=(1, 2, 3)), rng.normal(size=(4, 3, 5))
        got_a = grad_of(lambda a: T.tsum(T.matmul(a, Tensor(b0))), a0)
        got_b = grad_of(lambda b: T.tsum(T.matmul(Tensor(a0), b)), b0)
        assert got_a.shape == a0.shape and got_b.shape == b0.shape
        want_a = finite_diff_grad(lambda a: T.tsum(T.matmul(a, Tensor(b0))), Tensor(a0))
        want_b = finite_diff_grad(lambda b: T.tsum(T.matmul(Tensor(a0), b)), Tensor(b0))
        assert rel_err(got_a, want_a) < 1e-6 and rel_err(got_b, want_b) < 1e-6


class TestLayerNorm:
    def test_constant_row_maps_to_bias(self):
        out = T.layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-3)

    def test_two_point_row(self):
        out = T.layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-6)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            T.layer_norm(Tensor(np.zeros((2, 8))), Tensor(np.ones(4)), Tensor(np.zeros(4)))

    def test_0d_input_raises_dimension_error(self):
        with pytest.raises(DimensionError, match="layer_norm needs at least one axis"):
            T.layer_norm(Tensor(1.0), Tensor(np.ones(1)), Tensor(np.zeros(1)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x0 = rng.normal(size=(2, 8))
        gain = Tensor(rng.normal(1.0, 0.1, 8))
        bias = Tensor(rng.normal(0.0, 0.1, 8))

        def f(x):
            return T.tsum(T.mul(T.layer_norm(x, gain, bias), Tensor(rng_weights)))

        rng_weights = np.random.default_rng(2).normal(size=(2, 8))
        got = grad_of(f, x0)
        want = finite_diff_grad(f, Tensor(x0), h=1e-5)
        assert rel_err(got, want) < 1e-5

    def test_gain_bias_gradients(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(3, 6)))
        g0, b0 = rng.normal(1.0, 0.2, 6), rng.normal(size=6)

        def fg(g):
            return T.tsum(T.mul(T.layer_norm(x, g, Tensor(b0)), Tensor(mask)))

        mask = rng.normal(size=(3, 6))
        got = grad_of(fg, g0)
        want = finite_diff_grad(fg, Tensor(g0), h=1e-5)
        assert rel_err(got, want) < 1e-5

    def test_batched_input_under_a_non_contiguous_upstream_gradient(self):
        # (B, S, D) input, as the encoder's final norm gets; swap_axes hands
        # layer_norm's vjp a non-contiguous gradient
        rng = np.random.default_rng(4)
        x0, g0, b0 = rng.normal(size=(2, 3, 4)), rng.normal(1.0, 0.2, 4), rng.normal(size=4)
        mask = Tensor(rng.normal(size=(3, 2, 4)))

        def f(x, g, b):
            return T.tsum(T.mul(T.swap_axes(T.layer_norm(x, g, b), 0, 1), mask))

        for arg, fn in ((x0, lambda x: f(x, Tensor(g0), Tensor(b0))),
                        (g0, lambda g: f(Tensor(x0), g, Tensor(b0))),  # x untracked
                        (b0, lambda b: f(Tensor(x0), Tensor(g0), b))):
            assert rel_err(grad_of(fn, arg), finite_diff_grad(fn, Tensor(arg))) < 1e-5

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_standardization_invariant(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 3, size=(4, 16))
        x += rng.normal(size=(4, 1))  # row offsets
        out = T.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16)), eps=1e-12)
        assert np.abs(out.data.mean(axis=-1)).max() < 1e-10
        assert np.abs(out.data.var(axis=-1) - 1.0).max() < 1e-8


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.25] * 4)

    def test_large_logit_no_overflow(self):
        out = T.softmax(Tensor([1000.0, 0.0]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_jacobian_at_uniform_point(self):
        k = 5
        x0 = np.zeros(k)
        p = 1.0 / k
        analytic = np.diag([p] * k) - p * p * np.ones((k, k))
        for j in range(k):
            col = finite_diff_grad(lambda x, j=j: T.take(T.softmax(x), j), Tensor(x0), h=1e-5)
            got = grad_of(lambda x, j=j: T.take(T.softmax(x), j), x0)
            assert rel_err(got, analytic[:, j]) < 1e-6
            assert rel_err(col, analytic[:, j]) < 1e-6

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        # a row's spread is at most 30; p rounds to exactly 1.0 in float64 only past
        # about 36.7 (exp(-spread) below half an ulp of 1), so every p stays inside (0, 1)
        out = T.softmax(Tensor(rng.uniform(-15, 15, size=(6, 9))))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), atol=1e-12)
        assert ((out.data > 0) & (out.data < 1)).all()


class TestGelu:
    def test_zero(self):
        assert T.gelu(Tensor(0.0)).item() == 0.0

    def test_asymptote(self):
        assert abs(T.gelu(Tensor(10.0)).item() - 10.0) < 1e-9

    def test_unit_value_from_normal_cdf(self):
        assert abs(T.gelu(Tensor(1.0)).item() - 0.841345) < 1e-5

    def test_gradient(self):
        x0 = np.linspace(-3, 3, 13)
        got = grad_of(lambda x: T.tsum(T.gelu(x)), x0)
        want = finite_diff_grad(lambda x: T.tsum(T.gelu(x)), Tensor(x0), h=1e-6)
        assert rel_err(got, want) < 1e-7


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = T.cross_entropy(Tensor(np.zeros((1, 4))), [2])
        assert abs(loss.item() - math.log(4)) < 1e-12

    def test_confident_correct_limit(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 50.0
        assert T.cross_entropy(Tensor(logits), [1]).item() < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ContractError, match="label 3 "):
            T.cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])
        with pytest.raises(ContractError, match="label -1 "):
            T.cross_entropy(Tensor(np.zeros((2, 3))), [-1, 0])
        # a fractional label is refused, not truncated to a class
        with pytest.raises(ContractError, match="label 0.5 "):
            T.cross_entropy(Tensor(np.zeros((2, 3))), [0.5, 2.9])
        with pytest.raises(ContractError, match="label 1.999 "):
            T.cross_entropy(Tensor(np.zeros((2, 3))), [0, 1.999])
        with pytest.raises(ContractError, match="label nan "):
            T.cross_entropy(Tensor(np.zeros((2, 3))), [float("nan"), 0])

    def test_loss_and_gradient_match_finite_differences(self):
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(2, 3))
        labels = [2, 0]
        got = grad_of(lambda x: T.cross_entropy(x, labels), x0)
        want = finite_diff_grad(lambda x: T.cross_entropy(x, labels), Tensor(x0), h=1e-5)
        assert rel_err(got, want) < 1e-6

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(3, 4))
        labels = np.array([1, 3, 0])
        got = grad_of(lambda x: T.cross_entropy(x, labels), x0)
        p = np.exp(x0 - x0.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(3), labels] -= 1.0
        np.testing.assert_allclose(got, p / 3, atol=1e-12)


class TestBackward:
    def test_elementwise_power_rule(self):
        got = grad_of(lambda x: T.tsum(T.mul(x, x)), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(got, [2.0, 4.0, 6.0])

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x0 = rng.normal(size=(2, 5))
        w = Tensor(rng.normal(size=(5, 3)))

        def f(x):
            return T.tsum(T.gelu(T.matmul(x, w)))

        got = grad_of(f, x0)
        want = finite_diff_grad(f, Tensor(x0), h=1e-5)
        assert rel_err(got, want) < 1e-5

    def test_backward_twice_raises(self):
        x = Tensor([1.0, 2.0], tracked=True)
        with Tape():
            loss = T.tsum(T.mul(x, x))
        backward(loss)
        with pytest.raises(TapeError):
            backward(loss)

    def test_step_is_freed_without_the_cycle_collector(self):
        x = Tensor(np.ones((2, 3)), tracked=True)
        gc.disable()
        try:
            with Tape() as tape:
                hidden = T.gelu(T.mul(x, 2.0))
                loss = T.tsum(hidden)
            hidden_ref = weakref.ref(hidden)
            del hidden
            backward(loss)
            assert len(tape) == 3  # still the number of ops recorded
            del loss, tape
            assert hidden_ref() is None
        finally:
            gc.enable()
        gelu_slope_at_2 = 0.5 * (1 + math.erf(math.sqrt(2))) + 2 * math.exp(-2) / math.sqrt(
            2 * math.pi)
        np.testing.assert_allclose(x.grad, np.full((2, 3), 2.0 * gelu_slope_at_2))

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], tracked=True)
        with Tape():
            y = T.mul(x, x)
        with pytest.raises(ContractError):
            backward(y)

    def test_untracked_leaves_receive_no_grad(self):
        x = Tensor([1.0, 2.0], tracked=True)
        frozen = Tensor([3.0, 4.0], tracked=False)
        with Tape():
            loss = T.tsum(T.mul(x, frozen))
        backward(loss)
        assert frozen.grad is None
        np.testing.assert_allclose(x.grad, [3.0, 4.0])

    def test_fanout_grads_accumulate(self):
        x = Tensor([2.0], tracked=True)
        with Tape():
            loss = T.tsum(T.add(T.mul(x, x), T.mul(x, 3.0)))
        backward(loss)
        np.testing.assert_allclose(x.grad, [7.0])  # 2x + 3


class TestFiniteDiff:
    def test_quadratic(self):
        got = finite_diff_grad(lambda x: T.tsum(T.mul(x, x)), Tensor([3.0]), h=1e-5)
        assert abs(got[0] - 6.0) < 1e-7

    def test_cubic(self):
        got = finite_diff_grad(
            lambda x: T.tsum(T.mul(T.mul(x, x), x)), Tensor([2.0]), h=1e-4)
        assert abs(got[0] - 12.0) < 1e-6


LAYER_CASES = {
    "matmul": lambda x, aux: T.tsum(T.mul(T.matmul(x, aux["w"]), aux["m"])),
    "gelu": lambda x, aux: T.tsum(T.mul(T.gelu(x), aux["mx"])),
    "softmax": lambda x, aux: T.tsum(T.mul(T.softmax(x), aux["mx"])),
    "layer_norm": lambda x, aux: T.tsum(
        T.mul(T.layer_norm(x, aux["g"], aux["b"]), aux["mx"])),
    "cross_entropy": lambda x, aux: T.cross_entropy(x, aux["labels"]),
    "mean": lambda x, aux: T.tmean(T.mul(x, aux["mx"])),
    "narrow": lambda x, aux: T.tsum(T.narrow(x, 1, 1, 2)),
    "take": lambda x, aux: T.tsum(T.take(x, 1, axis=0)),
    "swap": lambda x, aux: T.tsum(T.mul(T.swap_axes(x, 0, 1), aux["mt"])),
    "custom": lambda x, aux: T.tsum(T.mul(
        T.custom(np.sin(x.data) * aux["mx"].data, (x, aux["mx"]),
                 lambda g: (g * np.cos(x.data) * aux["mx"].data, None)), aux["mx"])),
}


@pytest.mark.parametrize("name", sorted(LAYER_CASES))
def test_every_layer_type_agrees_with_finite_differences(name):
    # >= 20 random instances across the parametrized cases combined
    fn = LAYER_CASES[name]
    for trial in range(4):
        rng = np.random.default_rng(hash(name) % 2**31 + trial)
        x0 = rng.normal(size=(3, 4))
        aux = {
            "w": Tensor(rng.normal(size=(4, 2))),
            "m": Tensor(rng.normal(size=(3, 2))),
            "mx": Tensor(rng.normal(size=(3, 4))),
            "mt": Tensor(rng.normal(size=(4, 3))),
            "g": Tensor(rng.normal(1.0, 0.2, 4)),
            "b": Tensor(rng.normal(size=4)),
            "labels": rng.integers(0, 4, size=3),
        }
        got = grad_of(lambda x: fn(x, aux), x0)
        want = finite_diff_grad(lambda x: fn(x, aux), Tensor(x0), h=1e-5)
        assert rel_err(got, want) < 1e-4, f"{name} trial {trial}"


@pytest.mark.parametrize("op, match", [
    (lambda x: T.narrow(x, 0, 3, 2), r"window \[3, 5\) is outside axis 0 of extent 4"),
    (lambda x: T.narrow(x, 0, -1, 2), r"window \[-1, 1\) is outside axis 0 of extent 4"),
    (lambda x: T.narrow(x, -1, 1, 2), r"window \[1, 3\) is outside axis -1 of extent 2"),
    (lambda x: T.take(x, 5), r"index 5 is outside axis 0 of extent 4"),
    (lambda x: T.take(x, -3, axis=1), r"index -3 is outside axis 1 of extent 2"),
    (lambda x: T.take(x, 0, axis=2), r"axis 2 out of range for shape \(4, 2\)"),
    (lambda x: T.take(x, 1.5), r"index 1.5 along axis 0 is not of integers"),
    (lambda x: T.narrow(x, 0, 0.5, 2), r"window \[0.5, 2.5\) along axis 0 is not of integers"),
], ids=["narrow_past_end", "narrow_negative_start", "narrow_last_axis", "take_past_end",
        "take_negative", "take_no_such_axis", "take_fractional", "narrow_fractional"])
def test_narrow_and_take_refuse_what_the_axis_does_not_hold(op, match):
    with pytest.raises(DimensionError, match=match):
        op(Tensor(np.zeros((4, 2))))


def test_narrow_and_take_reach_both_ends_of_the_axis():
    x = Tensor(np.arange(8.0).reshape(4, 2))
    np.testing.assert_array_equal(T.narrow(x, 0, 2, 2).data, x.data[2:])
    assert T.narrow(x, 0, 4, 0).shape == (0, 2)
    np.testing.assert_array_equal(T.take(x, -4).data, x.data[0])
    # numpy integers are positions too
    np.testing.assert_array_equal(T.take(x, np.int64(3)).data, x.data[3])
    np.testing.assert_array_equal(T.narrow(x, 0, np.int32(1), np.int64(2)).data, x.data[1:3])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_forward_ops_stay_finite(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(0, 5, size=(3, 8)))
    w = Tensor(rng.normal(0, 5, size=(8, 8)))
    out = T.layer_norm(T.gelu(T.matmul(x, w)), Tensor(np.ones(8)), Tensor(np.zeros(8)))
    out = T.softmax(out)
    assert np.isfinite(out.data).all()


def test_forward_is_deterministic():
    rng = np.random.default_rng(7)
    x, w = rng.normal(size=(4, 6)), rng.normal(size=(6, 6))

    def run():
        return T.softmax(T.gelu(T.matmul(Tensor(x), Tensor(w)))).data

    a, b = run(), run()
    assert (a == b).all()
