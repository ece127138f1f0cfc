"""Encoder and auxiliary-head behavior."""

from dataclasses import replace

import numpy as np
import pytest

from evidfuse.errors import DataError
from evidfuse.encoders import (
    AuxHead,
    MlpEncoder,
    encode,
    init_aux_head,
    init_encoder,
    init_mlp,
    init_resnet,
    init_text_head,
    sample_dropout_masks,
)
import tape_ops as ad
from helpers import check_gradients

RNG = np.random.default_rng(42)


class TestEncode:
    @pytest.mark.parametrize("kind,dim", [("mlp", 7), ("resnet", 7), ("text-head", 24)])
    def test_eval_mode_deterministic(self, kind, dim):
        enc = init_encoder(kind, dim, np.random.default_rng(0))
        x = RNG.normal(size=(1, dim))
        out1, out2 = encode(enc, x), encode(enc, x)
        np.testing.assert_array_equal(out1, out2)
        assert out1.shape == (1, 32)

    def test_zero_parameters_give_zero_output(self):
        enc = init_mlp(5, np.random.default_rng(0))
        zeroed = MlpEncoder(
            params={k: np.zeros_like(v) for k, v in enc.params.items()},
            input_dim=5,
        )
        np.testing.assert_array_equal(encode(zeroed, RNG.normal(size=(1, 5))), np.zeros((1, 32)))

    def test_zero_dropout_train_equals_eval(self):
        enc = replace(init_mlp(5, np.random.default_rng(1)), dropout=0.0)
        x = RNG.normal(size=(8, 5))
        masks = sample_dropout_masks(enc, 8, np.random.default_rng(3))
        np.testing.assert_allclose(enc.forward(x, masks=masks), encode(enc, x), atol=1e-15)

    def test_dropout_changes_train_output(self):
        enc = replace(init_mlp(5, np.random.default_rng(1)), dropout=0.5)
        x = RNG.normal(size=(16, 5))
        masks = sample_dropout_masks(enc, 16, np.random.default_rng(3))
        assert not np.allclose(enc.forward(x, masks=masks), encode(enc, x))

    def test_batch_matches_per_row(self):
        enc = init_resnet(6, np.random.default_rng(2))
        x = RNG.normal(size=(5, 6))
        batch = encode(enc, x)
        for i in range(5):
            np.testing.assert_allclose(batch[i], encode(enc, x[i][None])[0], atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        enc = init_mlp(5, np.random.default_rng(0))
        with pytest.raises(DataError):
            encode(enc, RNG.normal(size=(1, 6)))

    def test_non_finite_rejected(self):
        enc = init_mlp(3, np.random.default_rng(0))
        with pytest.raises(DataError):
            encode(enc, np.array([[1.0, np.nan, 0.0]]))

    def test_ft_transformer_rejected_with_message(self):
        with pytest.raises(DataError, match="ft-transformer"):
            init_encoder("ft-transformer", 5, np.random.default_rng(0))


class TestResidualProperty:
    def test_zero_blocks_reduce_to_projection(self):
        enc = init_resnet(6, np.random.default_rng(4))
        params = dict(enc.params)
        for k in list(params):
            if k.startswith("block"):
                params[k] = np.zeros_like(params[k])
        x = RNG.normal(size=(3, 6))
        out = enc.forward(x, params=params)
        np.testing.assert_allclose(out, x @ params["w_in"] + params["b_in"], atol=1e-15)


class TestAuxHead:
    def test_selecting_coordinates(self):
        head = AuxHead(params={"w": np.eye(32)[:, :2], "b": np.zeros(2)},
                       input_dim=32, n_classes=2)
        z = RNG.normal(size=(4, 32))
        np.testing.assert_allclose(head.forward(z), z[:, :2], atol=1e-15)

    def test_zero_weights_give_bias(self):
        bias = np.array([0.3, -0.7])
        head = AuxHead(params={"w": np.zeros((32, 2)), "b": bias}, input_dim=32, n_classes=2)
        logits = head.forward(RNG.normal(size=(3, 32)))
        np.testing.assert_array_equal(logits, np.tile(bias, (3, 1)))

    def test_gradients(self):
        head = init_aux_head(4, 2, np.random.default_rng(5))
        z = RNG.normal(size=(6, 4))

        def f(w, b):
            return ad.sum_along(ad.sigmoid(head.forward(z, params={"w": w, "b": b})))

        check_gradients(f, [head.params["w"], head.params["b"]], tol=1e-5)


class TestEncoderGradients:
    @pytest.mark.parametrize("maker,dim", [(init_mlp, 4), (init_resnet, 4), (init_text_head, 9)])
    def test_match_finite_differences(self, maker, dim):
        enc = replace(maker(dim, np.random.default_rng(6)), dropout=0.3)
        x = RNG.normal(size=(5, dim))
        masks = sample_dropout_masks(enc, 5, np.random.default_rng(7))
        names = sorted(enc.params)

        def f(*arrays):
            params = dict(zip(names, arrays))
            out = enc.forward(x, params=params, masks=masks)
            return ad.sum_along(ad.sigmoid(out))

        check_gradients(f, [enc.params[k] for k in names], tol=1e-5)


class TestDropoutMasks:
    def test_inverted_scaling_preserves_mean(self):
        enc = replace(init_mlp(4, np.random.default_rng(8)), dropout=0.25)
        masks = sample_dropout_masks(enc, 20000, np.random.default_rng(9))
        for m in masks:
            assert set(np.unique(m)).issubset({0.0, 1.0 / 0.75})
            assert abs(m.mean() - 1.0) < 0.02

    def test_zero_rate_is_identity(self):
        enc = replace(init_mlp(4, np.random.default_rng(8)), dropout=0.0)
        for m in sample_dropout_masks(enc, 10, np.random.default_rng(9)):
            np.testing.assert_array_equal(m, np.ones_like(m))
