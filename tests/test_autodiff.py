"""Tape gradients checked against central finite differences.

Each check evaluates the same function twice: once on leaf tensors
(recording), once on plain numpy arrays (the dispatch fallback), so
dual-mode value consistency is exercised for free.
"""

import numpy as np
import pytest

from evidfuse.autodiff import Tape
import tape_ops as ad
from helpers import check_gradients


RNG = np.random.default_rng(1234)


class TestElementwiseOps:
    def test_add_sub_with_broadcast(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4,))
        check_gradients(lambda x, y: ad.sum_along((x + y) - (y - x)), [a, b])

    def test_mul_div_with_broadcast(self):
        a = RNG.normal(size=(3, 4)) + 3.0
        b = RNG.normal(size=(3, 1)) + 3.0
        check_gradients(lambda x, y: ad.sum_along((x * y) / (x + y)), [a, b])

    def test_scalar_constants(self):
        a = RNG.normal(size=(5,))
        check_gradients(lambda x: ad.sum_along(2.0 * x + 1.0 - x / 4.0), [a])

    def test_exp_log(self):
        a = RNG.uniform(0.5, 2.0, size=(6,))
        check_gradients(lambda x: ad.sum_along(ad.log(ad.exp(x) + 1.0)), [a])

    def test_sigmoid(self):
        a = RNG.normal(size=(7,))
        check_gradients(lambda x: ad.sum_along(ad.sigmoid(x) * ad.sigmoid(-x)), [a])

    def test_relu_away_from_kink(self):
        a = RNG.choice([-2.0, -1.0, 1.0, 2.0], size=(8,)) + RNG.uniform(-0.2, 0.2, 8)
        check_gradients(lambda x: ad.sum_along(ad.relu(x) * 3.0), [a])

    def test_relu_with_mask(self):
        # a dropout mask: zeros and inverted-scaled ones, applied inside the node
        a = RNG.choice([-2.0, -1.0, 1.0, 2.0], size=(4, 5)) + RNG.uniform(-0.2, 0.2, (4, 5))
        mask = np.where(RNG.random((4, 5)) < 0.4, 0.0, 1.0 / 0.6)
        mask[0, :] = 0.0
        c = RNG.normal(size=(4, 5))
        check_gradients(lambda x: ad.sum_along(ad.relu(x, mask) * c), [a])
        np.testing.assert_array_equal(ad.relu(a, mask), np.maximum(a, 0.0) * mask)
        tape = Tape()
        leaf = tape.leaf(a)
        out = ad.relu(leaf, mask)
        assert len(tape.nodes) == 2
        tape.backward(ad.sum_along(out))
        np.testing.assert_array_equal(leaf.grad, mask * (a > 0.0))

    def test_maximum_clamp(self):
        a = np.array([0.2, 0.9, 1.5, -0.3])
        check_gradients(lambda x: ad.sum_along(ad.log(ad.maximum(x, 0.5))), [a])
        # clamped entries get zero gradient
        tape = Tape()
        leaf = tape.leaf(a)
        tape.backward(ad.sum_along(ad.maximum(leaf, 0.5)))
        np.testing.assert_array_equal(leaf.grad, [0.0, 1.0, 1.0, 0.0])


class TestLinearAlgebraOps:
    def test_matmul(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        check_gradients(lambda x, y: ad.sum_along((x @ y) * (x @ y)), [a, b])

    def test_matmul_with_constant_left(self):
        c = RNG.normal(size=(5, 3))
        b = RNG.normal(size=(3, 2))
        check_gradients(lambda y: ad.sum_along(c @ y), [b])

    def test_linear_with_bias_broadcast(self):
        x = RNG.normal(size=(5, 3))
        w = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4,))
        check_gradients(lambda xv, wv, bv: ad.sum_along(ad.sigmoid(ad.linear(xv, wv, bv))),
                        [x, w, b])
        np.testing.assert_array_equal(ad.linear(x, w, b), x @ w + b)

    def test_linear_with_constant_input(self):
        x = RNG.normal(size=(6, 3))
        w = RNG.normal(size=(3, 2))
        b = RNG.normal(size=(2,))
        c = RNG.normal(size=(6, 2))
        check_gradients(lambda wv, bv: ad.sum_along(ad.linear(x, wv, bv) * c), [w, b])
        tape = Tape()
        ad.linear(x, tape.leaf(w), tape.leaf(b))
        assert len(tape.nodes) == 3     # two leaves, one node

    def test_linear_rejects_non_2d(self):
        tape = Tape()
        w = tape.leaf(RNG.normal(size=(2, 2)))
        with pytest.raises(ValueError):
            ad.linear(RNG.normal(size=(2, 2, 2)), w, np.zeros(2))

    def test_matmul_rejects_non_2d(self):
        tape = Tape()
        x = tape.leaf(RNG.normal(size=(2, 2, 2)))
        with pytest.raises(ValueError):
            ad.matmul(x, x)

    def test_transpose(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(3, 2))
        check_gradients(lambda x, y: ad.sum_along(ad.transpose(x) @ y), [a, b])


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = RNG.normal(size=(4, 3))
        check_gradients(lambda x: ad.sum_along(ad.sum_along(x, axis=1, keepdims=True) * x), [a])

    def test_prod_along(self):
        a = RNG.uniform(0.5, 1.5, size=(3, 5))
        check_gradients(lambda x: ad.sum_along(ad.prod_along(x, axis=1)), [a])

    def test_prod_keepdims(self):
        a = RNG.uniform(0.5, 1.5, size=(2, 4))
        check_gradients(lambda x: ad.sum_along(ad.prod_along(x, axis=0, keepdims=True) * x), [a])

    def test_mean_all(self):
        a = RNG.normal(size=(6, 2))
        check_gradients(lambda x: ad.mean_all(x * x), [a])

    def test_reshape(self):
        a = RNG.normal(size=(2, 6))
        check_gradients(lambda x: ad.sum_along(ad.reshape(x, (3, 4)) * 2.0), [a])


class TestComposites:
    def test_weighted_cross_entropy_shape(self):
        # log softmax with a detached max shift, the loss-path idiom
        logits = RNG.normal(size=(5, 3))
        onehot = np.eye(3)[RNG.integers(0, 3, 5)]
        weights = np.array([0.5, 1.0, 2.0])

        def f(z):
            zmax = np.max(ad.value_of(z), axis=1, keepdims=True)
            shifted = z - zmax
            logsum = ad.log(ad.sum_along(ad.exp(shifted), axis=1, keepdims=True))
            logp = shifted - logsum
            w = ad.sum_along(onehot * weights, axis=1)
            return -ad.mean_all(ad.sum_along(onehot * logp, axis=1) * w)

        check_gradients(f, [logits])

    def test_fan_out_accumulates(self):
        # the same tensor consumed twice must sum its gradients
        a = np.array([1.5, 2.5])
        tape = Tape()
        x = tape.leaf(a)
        y = ad.sum_along(x * x + x * 3.0)
        tape.backward(y)
        np.testing.assert_allclose(x.grad, 2 * a + 3.0, atol=1e-12)

    def test_backward_requires_scalar(self):
        tape = Tape()
        x = tape.leaf(np.ones(3))
        with pytest.raises(ValueError):
            tape.backward(x + 1.0)

    def test_determinism(self):
        a = RNG.normal(size=(4, 4))

        def run():
            tape = Tape()
            x = tape.leaf(a)
            out = ad.mean_all(ad.sigmoid(x @ x) * ad.exp(x / 10.0))
            tape.backward(out)
            return float(out.value), x.grad.copy()

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        np.testing.assert_array_equal(g1, g2)
