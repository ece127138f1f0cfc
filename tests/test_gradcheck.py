"""Gradient checks: the flat parameter layout, the whole model against
finite differences, and Dempster combination near total conflict."""

import numpy as np

from evidfuse.model import FlatParams, loss_and_grad, param_dict, with_params
from evidfuse.rng import substream
import tape_ops as ad
from helpers import (check_gradients, combine_batch, finite_difference_gradients,
                     make_dropout_masks, tiny_fusion_setup)


class TestFlatParams:
    def test_round_trip_exact(self):
        model, _, _ = tiny_fusion_setup(seed=0, n=20)
        params = param_dict(model)
        slots = FlatParams.from_model(model)
        assert slots.flat.size == slots.grad.size == sum(v.size for v in params.values())
        assert list(slots.params) == list(slots.grads) == list(params)
        for k in params:
            np.testing.assert_array_equal(slots.params[k], params[k])
            assert np.shares_memory(slots.params[k], slots.flat)
            assert not np.shares_memory(slots.params[k], params[k])

    def test_bijective_index_map(self):
        slots = FlatParams({"a": (2, 3), "b": (4,), "c": ()}, np.zeros(11), np.zeros(11))
        views = slots.views(np.arange(11.0))
        np.testing.assert_array_equal(views["a"], [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(views["b"], [6, 7, 8, 9])
        assert views["c"].shape == () and views["c"] == 10


class TestCheckGradients:
    def test_small_model_passes_tolerance(self):
        """``loss_and_grad`` against central differences of the loss, on
        every trainable array of a two-source model, with dropout on."""
        model, inputs, labels = tiny_fusion_setup(seed=1, n=8)
        params = param_dict(model)
        names = list(params)
        masks = make_dropout_masks(model, len(labels), substream(3, "dropout"))

        def f(*arrays):
            return loss_and_grad(with_params(model, dict(zip(names, arrays))), inputs, labels,
                                 masks=masks)[0]

        _, grad = loss_and_grad(model, inputs, labels, masks=masks)
        grads = FlatParams.from_model(model).views(grad)
        numeric = finite_difference_gradients(f, [params[k] for k in names])
        for name, want in zip(names, numeric):
            np.testing.assert_allclose(grads[name], want, rtol=1e-6, atol=1e-6, err_msg=name)


class TestCombinationGradient:
    def test_near_total_conflict(self):
        # kappa = 0.995 * 0.995 ~ 0.99: the 1/(1 - kappa) normalizer is steep
        a_s = np.array([[0.995, 0.0]])
        a_g = np.array([[0.005]])
        b_s = np.array([[0.0, 0.995]])
        b_g = np.array([[0.005]])
        target = np.array([[1.0, -1.0]])

        def f(asv, agv, bsv, bgv):
            singles, ign = combine_batch([(asv, agv), (bsv, bgv)])
            return ad.sum_along(singles * target) + ad.sum_along(ign)

        check_gradients(f, [a_s, a_g, b_s, b_g], tol=1e-4, step=1e-7)

    def test_generic_combination(self):
        rng = np.random.default_rng(9)
        parts = rng.dirichlet(np.ones(3), size=4)
        a_s, a_g = parts[:2, :2].copy(), parts[:2, 2:].copy()
        b_s, b_g = parts[2:, :2].copy(), parts[2:, 2:].copy()
        weights = rng.normal(size=(2, 2))

        def f(asv, agv, bsv, bgv):
            singles, ign = combine_batch([(asv, agv), (bsv, bgv)])
            return ad.sum_along(singles * weights) + 2.0 * ad.sum_along(ign)

        check_gradients(f, [a_s, a_g, b_s, b_g], tol=1e-5)
