"""Encoder and auxiliary-head behavior."""

import math
from dataclasses import replace

import numpy as np
import pytest

from evidfuse.errors import DataError
from evidfuse.encoders import (
    ENCODE_BLOCK_ROWS,
    AuxHead,
    DropoutMasks,
    MlpEncoder,
    _affine,
    _affine_backward,
    aux_backward,
    aux_forward,
    encode_blocks,
    init_aux_head,
    init_encoder,
    init_mlp,
    init_resnet,
    init_text_head,
    layer_widths,
    row_blocks,
)
from helpers import finite_difference_gradients, sample_dropout_masks

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


def head_forward(head, z):
    """One aux head's logits, the stacked kernel on a group of one."""
    return aux_forward(z[None], head.params["w"][None], head.params["b"][None])[0]


class TestAuxHead:
    def test_selecting_coordinates(self):
        head = AuxHead(params={"w": np.eye(32)[:, :2], "b": np.zeros(2)},
                       input_dim=32, n_classes=2)
        z = RNG.normal(size=(4, 32))
        np.testing.assert_allclose(head_forward(head, z), z[:, :2], atol=1e-15)

    def test_zero_weights_give_bias(self):
        bias = np.array([0.3, -0.7])
        head = AuxHead(params={"w": np.zeros((32, 2)), "b": bias}, input_dim=32, n_classes=2)
        logits = head_forward(head, RNG.normal(size=(3, 32)))
        np.testing.assert_array_equal(logits, np.tile(bias, (3, 1)))

    def test_gradients(self):
        """``aux_backward`` adds the parameter gradients of
        sum(sigmoid(logits)) into zeroed slots and returns the input's;
        central differences agree."""
        head = init_aux_head(4, 2, np.random.default_rng(5))
        z = RNG.normal(size=(6, 4))

        def f(zv, w, b):
            return np.sum(sigmoid(head_forward(replace(head, params={"w": w, "b": b}), zv)))

        sig = sigmoid(head_forward(head, z))
        grads = {k: np.zeros((1, *v.shape)) for k, v in head.params.items()}
        g_z = aux_backward(z[None], (sig * (1.0 - sig))[None], head.params["w"][None],
                           grads["w"], grads["b"])
        numeric = finite_difference_gradients(f, [z, head.params["w"], head.params["b"]])
        for got, want in zip([g_z[0], grads["w"][0], grads["b"][0]], numeric):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


class TestStackedAuxKernel:
    """``aux_forward`` and ``aux_backward`` on a group of G heads: every
    slice has the bits of the 2-D affine map and its backward."""

    @pytest.mark.parametrize("n", [1, 24, 32])
    @pytest.mark.parametrize("g", [1, 2, 5])
    def test_slices_match_the_2d_affine_map(self, g, n):
        rng = np.random.default_rng(10 * g + n)
        d, m = 8, 3
        z, w, b = rng.normal(size=(g, n, d)), rng.normal(size=(g, d, m)), rng.normal(size=(g, m))
        grad_g = rng.normal(size=(g, n, m))
        logits = aux_forward(z, w, b)
        grad_w, grad_b = np.zeros_like(w), np.zeros_like(b)
        g_z = aux_backward(z, grad_g, w, grad_w, grad_b)
        for k in range(g):
            assert logits[k].tobytes() == _affine(z[k], w[k], b[k]).tobytes(), k
            want_w, want_b = np.zeros_like(w[k]), np.zeros_like(b[k])
            _affine_backward(z[k], grad_g[k], want_w, want_b)
            assert grad_w[k].tobytes() == want_w.tobytes(), k
            assert grad_b[k].tobytes() == want_b.tobytes(), k
            assert g_z[k].tobytes() == (grad_g[k] @ w[k].T).tobytes(), k


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


def encoder_stack(spec):
    """Encoders named by ``spec``: kind:input_dim[:dropout] entries."""
    out = []
    for i, entry in enumerate(spec.split()):
        kind, dim, *rate = entry.split(":")
        enc = init_encoder(kind, int(dim), np.random.default_rng(i))
        out.append(replace(enc, dropout=float(rate[0])) if rate else enc)
    return out


class TestOneDrawMasks:
    """``DropoutMasks.draw`` against one ``rng.random`` per mask
    (``helpers.sample_dropout_masks``): the same mask bits, and the
    generator in the same state afterwards."""

    @staticmethod
    def assert_matches_per_mask_draws(encoders, masks, n, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = masks.draw(n, rng)
        want = [sample_dropout_masks(enc, n, oracle_rng) for enc in encoders]
        assert len(got) == len(want)
        for mine, theirs in zip(got, want):
            assert [m.shape for m in mine] == [m.shape for m in theirs]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(mine, theirs))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        return got

    @pytest.mark.parametrize("spec,n", [
        ("mlp:16 text-head:8", 32),
        ("resnet:4 resnet:4 resnet:4 resnet:4 text-head:8", 1024),
        ("mlp:4:0.3 text-head:8 mlp:4:0.3 resnet:4:0.1 mlp:4:0.0 resnet:4", 7),
    ], ids=["mlp-batch-32", "four-resnets-and-text-1024", "mixed-rates"])
    def test_matches_per_mask_draws(self, spec, n):
        encoders = encoder_stack(spec)
        self.assert_matches_per_mask_draws(encoders, DropoutMasks(encoders, n), n, seed=n)

    def test_ragged_batch_views_the_full_batch_storage(self):
        """An epoch of 3000 rows at batch 32 ends on a 24-row batch: its
        masks view the storage of the 32-row ones, and each draw matches
        the per-mask draws on its own."""
        encoders = encoder_stack("mlp:16 text-head:8")
        masks = DropoutMasks(encoders, 32)
        full = self.assert_matches_per_mask_draws(encoders, masks, 32, seed=1)
        ragged = self.assert_matches_per_mask_draws(encoders, masks, 3000 % 32, seed=2)
        assert [m.shape for m in ragged[0]] == [(24, 32)] * 2
        assert all(np.shares_memory(a, b) for a, b in zip(full[0], ragged[0]))
        again = self.assert_matches_per_mask_draws(encoders, masks, 32, seed=3)
        assert all(a is b for a, b in zip(full[0], again[0]))

    def test_zero_rate_draws_nothing(self):
        encoders = encoder_stack("mlp:4:0.0 text-head:8")
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        (masks, text_masks) = DropoutMasks(encoders, 10).draw(10, rng)
        assert rng.bit_generator.state == state and text_masks == []
        assert all(m.tobytes() == np.ones((10, 32)).tobytes() for m in masks)
