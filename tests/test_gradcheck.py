from gradcheck import finite_diff_grad
from vistab import tensor as T
from vistab.tensor import Tensor


class TestFiniteDiff:
    def test_quadratic(self):
        got = finite_diff_grad(lambda x: T.tsum(T.mul(x, x)), Tensor([3.0]), h=1e-5)
        assert abs(got[0] - 6.0) < 1e-7

    def test_cubic(self):
        got = finite_diff_grad(
            lambda x: T.tsum(T.mul(T.mul(x, x), x)), Tensor([2.0]), h=1e-4)
        assert abs(got[0] - 12.0) < 1e-6
