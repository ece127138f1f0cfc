"""Encoder and auxiliary-head behavior."""

import math
from dataclasses import replace

import numpy as np
import pytest

from evidfuse.errors import DataError
from evidfuse.encoders import (
    ENCODE_BLOCK_ROWS,
    AuxHead,
    MlpEncoder,
    encode_blocks,
    init_aux_head,
    init_encoder,
    init_mlp,
    init_resnet,
    init_text_head,
    row_blocks,
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
        out1, out2 = encode_blocks(enc, x), encode_blocks(enc, x)
        np.testing.assert_array_equal(out1, out2)
        assert out1.shape == (1, 32)

    def test_zero_parameters_give_zero_output(self):
        enc = init_mlp(5, np.random.default_rng(0))
        zeroed = MlpEncoder(
            params={k: np.zeros_like(v) for k, v in enc.params.items()},
            input_dim=5,
        )
        np.testing.assert_array_equal(encode_blocks(zeroed, RNG.normal(size=(1, 5))),
                                      np.zeros((1, 32)))

    def test_zero_dropout_train_equals_eval(self):
        enc = replace(init_mlp(5, np.random.default_rng(1)), dropout=0.0)
        x = RNG.normal(size=(8, 5))
        masks = sample_dropout_masks(enc, 8, np.random.default_rng(3))
        np.testing.assert_allclose(enc.forward(x, masks=masks), encode_blocks(enc, x), atol=1e-15)

    def test_dropout_changes_train_output(self):
        enc = replace(init_mlp(5, np.random.default_rng(1)), dropout=0.5)
        x = RNG.normal(size=(16, 5))
        masks = sample_dropout_masks(enc, 16, np.random.default_rng(3))
        assert not np.allclose(enc.forward(x, masks=masks), encode_blocks(enc, x))

    def test_batch_matches_per_row(self):
        enc = init_resnet(6, np.random.default_rng(2))
        x = RNG.normal(size=(5, 6))
        batch = encode_blocks(enc, x)
        for i in range(5):
            np.testing.assert_allclose(batch[i], encode_blocks(enc, x[i][None])[0], atol=1e-12)

    def test_ft_transformer_rejected_with_message(self):
        with pytest.raises(DataError, match="ft-transformer"):
            init_encoder("ft-transformer", 5, np.random.default_rng(0))


B = ENCODE_BLOCK_ROWS


class TestBlockedEncode:
    """``encode_blocks`` runs in row blocks and keeps the bits of one whole
    ``forward``.  The 512-wide text head is the case where blocks of 2
    to 128 rows change the bits."""

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("kind,dim,overrides", [
        ("mlp", 16, {}), ("resnet", 4, {}), ("text-head", 8, {}),
        ("text-head", 8, {"hidden_dim": 512}),
    ], ids=["mlp", "resnet", "text-head", "text-head-512"])
    def test_matches_one_whole_forward(self, kind, dim, overrides, n):
        enc = init_encoder(kind, dim, np.random.default_rng(0), **overrides)
        x = np.random.default_rng(n).normal(size=(n, dim))
        got, want = encode_blocks(enc, x), enc.forward(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1,
                                   5 * B + 3])
    def test_row_blocks_cover_the_rows_without_small_blocks(self, n):
        bounds = list(row_blocks(n))
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        sizes = [hi - lo for lo, hi in bounds]
        assert len(sizes) == max(1, math.ceil(n / B))
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= B
        # a block is never smaller than half the constant unless the split is
        assert min(sizes) >= min(n, B // 2)


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
