"""Gradient verification harness: the flat index map and the checker."""

import numpy as np
import pytest

from evidfuse import autodiff as ad
from evidfuse.gradcheck import GradCheckResult, ParamVector, check_gradients
from evidfuse.model import loss_and_grad, param_dict
from helpers import check_gradients as fd_check, combine_batch, tiny_fusion_setup


class TestParamVector:
    def test_round_trip_exact(self):
        model, _, _ = tiny_fusion_setup(seed=0, n=20)
        params = param_dict(model)
        pv = ParamVector.from_model(model)
        flat = pv.flatten(params)
        assert flat.size == pv.size
        restored = pv.unflatten(flat)
        assert set(restored) == set(params)
        for k in params:
            np.testing.assert_array_equal(restored[k], params[k])

    def test_bijective_index_map(self):
        pv = ParamVector.from_params({"a": np.zeros((2, 3)), "b": np.zeros(4)})
        assert pv.size == 10
        labels = {pv.entry_label(i) for i in range(pv.size)}
        assert len(labels) == 10
        assert pv.entry_label(0) == "a[0,0]"
        assert pv.entry_label(5) == "a[1,2]"
        assert pv.entry_label(6) == "b[0]"

    def test_empty_param_set(self):
        pv = ParamVector.from_params({})
        assert pv.size == 0
        assert pv.flatten({}).size == 0

    def test_out_of_range_label(self):
        pv = ParamVector.from_params({"a": np.zeros(2)})
        with pytest.raises(IndexError):
            pv.entry_label(2)


class TestCheckGradients:
    def test_small_model_passes_tolerance(self):
        model, inputs, labels = tiny_fusion_setup(seed=1, n=8)
        result = check_gradients(model, inputs, labels, step=1e-5, dropout_seed=3)
        assert result.n_checked == ParamVector.from_model(model).size
        assert result.max_rel_error <= 1e-4, result.worst_param

    def test_subset_is_seeded_and_bounded(self):
        model, inputs, labels = tiny_fusion_setup(seed=2, n=8)
        r1 = check_gradients(model, inputs, labels, max_entries=50, seed=11)
        r2 = check_gradients(model, inputs, labels, max_entries=50, seed=11)
        assert r1 == r2
        assert r1.n_checked == 50

    def test_zero_entries_is_vacuous(self):
        model, inputs, labels = tiny_fusion_setup(seed=3, n=6)
        result = check_gradients(model, inputs, labels, max_entries=0)
        assert result == GradCheckResult(0.0, None, 0)

    def test_corrupted_gradient_is_flagged_by_name(self):
        model, inputs, labels = tiny_fusion_setup(seed=4, n=8)
        victim = "src0.enn.scale_raw"

        def corrupting_grad_fn(model_, inputs_, labels_, params=None, masks=None):
            loss, grads = loss_and_grad(model_, inputs_, labels_, params=params, masks=masks)
            grads[victim] = grads[victim] + 1.0
            return loss, grads

        result = check_gradients(model, inputs, labels, grad_fn=corrupting_grad_fn)
        assert result.max_rel_error > 1e-2
        assert result.worst_param.startswith(victim)

    def test_rejects_nonpositive_step(self):
        model, inputs, labels = tiny_fusion_setup(seed=5, n=6)
        with pytest.raises(ValueError):
            check_gradients(model, inputs, labels, step=0.0)


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

        fd_check(f, [a_s, a_g, b_s, b_g], tol=1e-4, step=1e-7)

    def test_generic_combination(self):
        rng = np.random.default_rng(9)
        parts = rng.dirichlet(np.ones(3), size=4)
        a_s, a_g = parts[:2, :2].copy(), parts[:2, 2:].copy()
        b_s, b_g = parts[2:, :2].copy(), parts[2:, 2:].copy()
        weights = rng.normal(size=(2, 2))

        def f(asv, agv, bsv, bgv):
            singles, ign = combine_batch([(asv, agv), (bsv, bgv)])
            return ad.sum_along(singles * weights) + 2.0 * ad.sum_along(ign)

        fd_check(f, [a_s, a_g, b_s, b_g], tol=1e-5)
