"""Gradient checks: the flat parameter layout, the whole model against
finite differences, and Dempster combination near total conflict."""

import numpy as np

from evidfuse.model import ParamVector, loss_overall, make_dropout_masks, param_dict
from evidfuse.rng import substream
import tape_ops as ad
from helpers import check_gradients, combine_batch, tiny_fusion_setup


class TestParamVector:
    def test_round_trip_exact(self):
        model, _, _ = tiny_fusion_setup(seed=0, n=20)
        params = param_dict(model)
        pv = ParamVector.from_params(params)
        flat = pv.flatten(params)
        assert flat.size == pv.size
        restored = pv.unflatten(flat)
        assert set(restored) == set(params)
        for k in params:
            np.testing.assert_array_equal(restored[k], params[k])

    def test_bijective_index_map(self):
        pv = ParamVector.from_params({"a": np.zeros((2, 3)), "b": np.zeros(4)})
        assert pv.size == 10
        views = pv.views(np.arange(10.0))
        np.testing.assert_array_equal(views["a"], [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(views["b"], [6, 7, 8, 9])

    def test_empty_param_set(self):
        pv = ParamVector.from_params({})
        assert pv.size == 0
        assert pv.flatten({}).size == 0


class TestCheckGradients:
    def test_small_model_passes_tolerance(self):
        """Every trainable array of a two-source model, with dropout on."""
        model, inputs, labels = tiny_fusion_setup(seed=1, n=8)
        params = param_dict(model)
        names = list(params)
        masks = make_dropout_masks(model, len(labels), substream(3, "dropout"))

        def f(*arrays):
            return loss_overall(model, inputs, labels, params=dict(zip(names, arrays)),
                                masks=masks)

        check_gradients(f, [params[k] for k in names], tol=1e-6)


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
