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
    layer_widths,
    row_blocks,
    sample_dropout_masks,
)
from helpers import finite_difference_gradients

RNG = np.random.default_rng(42)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


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
        np.testing.assert_allclose(enc.forward(x, masks=masks)[0], encode_blocks(enc, x),
                                   atol=1e-15)

    def test_dropout_changes_train_output(self):
        enc = replace(init_mlp(5, np.random.default_rng(1)), dropout=0.5)
        x = RNG.normal(size=(16, 5))
        masks = sample_dropout_masks(enc, 16, np.random.default_rng(3))
        assert not np.allclose(enc.forward(x, masks=masks)[0], encode_blocks(enc, x))

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
        got, want = encode_blocks(enc, x), enc.forward(x)[0]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind,dim", [("mlp", 7), ("resnet", 7), ("text-head", 24)])
    def test_forward_into_given_arrays_keeps_the_bits(self, kind, dim):
        """A training workspace's layer arrays, one per ``layer_widths``
        entry: the forward writes every layer output into them, with the
        bits of fresh arrays."""
        enc = init_encoder(kind, dim, np.random.default_rng(0))
        x = RNG.normal(size=(9, dim))
        masks = sample_dropout_masks(enc, 9, np.random.default_rng(1))
        out = [np.full((9, w), np.nan) for w in layer_widths(enc)]
        z, _ = enc.forward(x, masks, out)
        assert z is out[-1] and not any(np.isnan(a).any() for a in out)
        assert z.tobytes() == enc.forward(x, masks)[0].tobytes()

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
        out, _ = replace(enc, params=params).forward(x)
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
        """``backward`` adds the parameter gradients of sum(sigmoid(logits))
        into zeroed slots and returns the input's; central differences agree."""
        head = init_aux_head(4, 2, np.random.default_rng(5))
        z = RNG.normal(size=(6, 4))

        def f(zv, w, b):
            return np.sum(sigmoid(replace(head, params={"w": w, "b": b}).forward(zv)))

        sig = sigmoid(head.forward(z))
        grads = {k: np.zeros_like(v) for k, v in head.params.items()}
        g_z = head.backward(z, sig * (1.0 - sig), grads)
        numeric = finite_difference_gradients(f, [z, head.params["w"], head.params["b"]])
        for got, want in zip([g_z, grads["w"], grads["b"]], numeric):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


class TestEncoderGradients:
    @pytest.mark.parametrize("maker,dim", [(init_mlp, 4), (init_resnet, 4), (init_text_head, 9)])
    def test_match_finite_differences(self, maker, dim):
        """``backward`` adds the gradients of sum(sigmoid(out)), dropout on,
        into zeroed slots; central differences agree."""
        enc = replace(maker(dim, np.random.default_rng(6)), dropout=0.3)
        x = RNG.normal(size=(5, dim))
        masks = sample_dropout_masks(enc, 5, np.random.default_rng(7))
        names = sorted(enc.params)

        def f(*arrays):
            out, _ = replace(enc, params=dict(zip(names, arrays))).forward(x, masks=masks)
            return np.sum(sigmoid(out))

        out, cache = enc.forward(x, masks=masks)
        sig = sigmoid(out)
        grads = {k: np.zeros_like(v) for k, v in enc.params.items()}
        assert enc.backward(cache, sig * (1.0 - sig), grads) is None
        numeric = finite_difference_gradients(f, [enc.params[k] for k in names])
        for name, want in zip(names, numeric):
            np.testing.assert_allclose(grads[name], want, rtol=1e-5, atol=1e-5, err_msg=name)

    @pytest.mark.parametrize("kind,dim,overrides", [
        ("mlp", 4, {"hidden_dim": 5, "output_dim": 3}), ("resnet", 4, {"output_dim": 6}),
        ("text-head", 9, {"hidden_dim": 7, "output_dim": 2}),
    ], ids=["mlp", "resnet", "text-head"])
    def test_shapes_are_the_initialized_layout(self, kind, dim, overrides):
        """``shapes()``, which ``load_checkpoint`` checks a component
        against, is the layout the initializer draws, in its order."""
        enc = init_encoder(kind, dim, np.random.default_rng(0), **overrides)
        head = init_aux_head(enc.output_dim, 3, np.random.default_rng(0))
        for component in (enc, head):
            layout = [(name, value.shape) for name, value in component.params.items()]
            assert layout == list(component.shapes().items())


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
