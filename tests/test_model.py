"""Fusion model: batched predictions, losses, training loop, checkpoints."""

import base64
import gc
import hashlib
import itertools
import json
import math
import re
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

import evidfuse.model
from evidfuse.encoders import (ENCODE_BLOCK_ROWS, AuxHead, MlpEncoder, encode_blocks,
                               init_aux_head, init_encoder)
from evidfuse.errors import ConfigError, DataError, TrainingDivergedError
from evidfuse.evidential import EnnParams, evidence_batch
from evidfuse.model import (
    Adam,
    FlatParams,
    Frame,
    FusionModel,
    FusionSource,
    Predictions,
    SourceSpec,
    TrainConfig,
    init_model,
    load_checkpoint,
    loss_and_grad,
    loss_aux,
    loss_main,
    loss_overall,
    make_dropout_masks,
    model_to_json_dict,
    param_dict,
    predict_batch,
    predict_probs,
    save_checkpoint,
    train,
    with_params,
)
from evidfuse.rng import substream
import tape_ops as ad
from helpers import (chained_loss_overall, checkpoint_arrays, checkpoint_as_version_1,
                     checkpoint_doc_as_version_1, exact_prediction, f8_as_list, list_as_f8,
                     many_source_setup, reference_loss_and_grad, taped_loss_and_grad,
                     tiny_fusion_setup)
from reference import SimpleMass, combine_simple, frame_of_size, pignistic

F2 = frame_of_size(2)
# sha256 of the version-1 writer's checkpoint.json of seeded_model()
VERSION_1_SHA256 = "5a2fe48e1bb839dafac4cf2baa8148544c871e04545394bc9596028d46404cc5"


def logit(p):
    return math.log(p / (1.0 - p))


def constant_mass_source(name, input_dim, support, membership_raw, aux_weight=1.0):
    """A source whose encoder outputs zeros, so its evidence depends only
    on its single origin prototype: mass = (sigmoid(support) * u, rest)."""
    zero_params = {
        "w0": np.zeros((input_dim, 4)), "b0": np.zeros(4),
        "w1": np.zeros((4, 4)), "b1": np.zeros(4),
        "w2": np.zeros((4, 2)), "b2": np.zeros(2),
    }
    encoder = MlpEncoder(params=zero_params, input_dim=input_dim,
                         hidden_dim=4, output_dim=2, dropout=0.0)
    enn = EnnParams(
        prototypes=np.zeros((1, 2)),
        scale_raw=np.array([1.0]),
        support_raw=np.array([support]),
        membership_raw=np.array([membership_raw]),
    )
    aux = AuxHead(params={"w": np.zeros((2, 2)), "b": np.zeros(2)}, input_dim=2, n_classes=2)
    return FusionSource(SourceSpec(name, "mlp", aux_weight), encoder, enn, aux)


def two_constant_source_model():
    # sources emit the mass-algebra worked examples: ({1}:0.6, O:0.4), ({2}:0.5, O:0.5)
    src_a = constant_mass_source("a", 3, logit(0.6), [40.0, 0.0])
    src_b = constant_mass_source("b", 3, logit(0.5), [0.0, 40.0])
    return FusionModel(F2, [src_a, src_b], np.ones(2))


def predict_one(model, sample):
    """One sample's row of a one-row ``predict_batch``."""
    return predict_batch(model, [x[None] for x in sample])[0]


class TestForward:
    def test_single_source_passthrough(self):
        model = FusionModel(F2, [constant_mass_source("a", 3, logit(0.6), [40.0, 0.0])],
                            np.ones(2))
        pred = predict_one(model, [np.zeros(3)])
        np.testing.assert_allclose(pred.singletons, pred.source_singletons[0], atol=1e-15)

    def test_vacuous_source_absorbed(self):
        src_a = constant_mass_source("a", 3, logit(0.6), [40.0, 0.0])
        src_b = constant_mass_source("b", 3, -40.0, [0.0, 0.0])  # support -> 0: vacuous
        model = FusionModel(F2, [src_a, src_b], np.ones(2))
        pred = predict_one(model, [np.zeros(3), np.zeros(3)])
        np.testing.assert_allclose(pred.singletons, [0.6, 0.0], atol=1e-12)
        assert abs(pred.ignorance - 0.4) <= 1e-12

    def test_matches_pairwise_combination_example(self):
        model = two_constant_source_model()
        pred = predict_one(model, [np.zeros(3), np.zeros(3)])
        a = SimpleMass(F2, np.array([0.6, 0.0]), 0.4)
        b = SimpleMass(F2, np.array([0.0, 0.5]), 0.5)
        expected = combine_simple(a, b)
        np.testing.assert_allclose(pred.singletons, expected.singletons, atol=1e-12)
        np.testing.assert_allclose(pred.probs, pignistic(expected), atol=1e-12)
        assert abs(pred.conflict[0, 1] - 0.3) <= 1e-12

    def test_missing_source_input_rejected(self):
        model = two_constant_source_model()
        with pytest.raises(DataError):
            predict_batch(model, [np.zeros((1, 3))])
        with pytest.raises(DataError):
            predict_batch(model, [np.zeros((1, 3)), None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("predict", [predict_probs, predict_batch])
    def test_non_finite_input_rejected(self, predict, bad):
        model, inputs, _ = tiny_fusion_setup(seed=2, n=6)
        inputs[1][3, 0] = bad
        with pytest.raises(DataError, match="non-finite"):
            predict(model, inputs)

    def test_decision_rule_ties_to_lowest_index(self):
        model = FusionModel(F2, [constant_mass_source("a", 3, -40.0, [0.0, 0.0])], np.ones(2))
        pred = predict_one(model, [np.zeros(3)])  # vacuous -> uniform probabilities
        assert pred.predicted_class == 0

    def test_fused_ignorance_never_exceeds_sources(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            parts_a = rng.dirichlet(np.ones(3))
            parts_b = rng.dirichlet(np.ones(3))
            # same singleton ordering: both favor class 0
            a = SimpleMass(F2, np.sort(parts_a[:2])[::-1], parts_a[2])
            b = SimpleMass(F2, np.sort(parts_b[:2])[::-1], parts_b[2])
            fused = combine_simple(a, b)
            assert fused.ignorance <= min(a.ignorance, b.ignorance) + 1e-12


class TestPredictBatch:
    def test_matches_single_sample_forward(self):
        model, inputs, _ = tiny_fusion_setup(seed=1, n=12)
        preds = predict_batch(model, inputs)
        assert len(preds) == 12
        for i in range(12):
            pred, ref = preds[i], exact_prediction(model, [x[i] for x in inputs])
            for f in fields(ref):
                got, want = getattr(pred, f.name), getattr(ref, f.name)
                assert np.shape(got) == np.shape(want), f.name
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f.name)
            assert pred.predicted_class == np.argmax(ref.probs)

    def test_probs_equal_predict_probs(self):
        model, inputs, _ = tiny_fusion_setup(seed=4, n=15)
        preds = predict_batch(model, inputs)
        assert np.array_equal(preds.probs, predict_probs(model, inputs))
        assert np.array_equal(np.stack([p.probs for p in preds]), preds.probs)

    def test_iteration_yields_each_sample(self):
        """Iterating predictions (``__getitem__`` until IndexError) yields N
        single-sample Predictions, whose stacked probs are predict_probs'."""
        model, inputs, _ = tiny_fusion_setup(seed=5, n=9)
        preds = predict_batch(model, inputs)
        samples = list(preds)
        assert len(samples) == len(preds) == 9
        for i, sample in enumerate(samples):
            assert isinstance(sample, Predictions)
            for f in fields(Predictions):
                got, want = getattr(sample, f.name), getattr(preds, f.name)[i]
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), f.name
        stacked = np.stack([p.probs for p in preds])
        assert stacked.tobytes() == predict_probs(model, inputs).tobytes()

    def test_conflict_of_worked_example(self):
        model = two_constant_source_model()
        (pred,) = predict_batch(model, [np.zeros((1, 3)), np.zeros((1, 3))])
        np.testing.assert_allclose(pred.conflict, [[0.0, 0.3], [0.3, 0.0]], atol=1e-12)

    def test_permutation_equivariance(self):
        model, inputs, _ = tiny_fusion_setup(seed=2, n=10)
        perm = np.random.default_rng(0).permutation(10)
        plain = predict_batch(model, inputs)
        shuffled = predict_batch(model, [x[perm] for x in inputs])
        np.testing.assert_array_equal(shuffled.probs, plain[perm].probs)

    def test_repeated_sample_identical(self):
        model, inputs, _ = tiny_fusion_setup(seed=3, n=6)
        doubled = [np.vstack([x[:1], x[:1]]) for x in inputs]
        preds = predict_batch(model, doubled)
        np.testing.assert_array_equal(preds[0].probs, preds[1].probs)


class TestLosses:
    def test_main_zero_on_perfect_predictions(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        assert loss_main(probs, labels, np.array([3.0, 0.5])) <= 1e-9

    def test_main_hand_value(self):
        value = loss_main(np.array([[0.5, 0.5]]), np.array([0]), np.ones(2))
        assert abs(value - math.log(2)) <= 1e-12

    def test_main_linear_in_weights(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(2), size=16)
        labels = rng.integers(0, 2, 16)
        w = np.array([1.3, 0.6])
        assert abs(loss_main(probs, labels, 2 * w) - 2 * loss_main(probs, labels, w)) <= 1e-12

    def test_aux_uniform_logits(self):
        value = loss_aux(np.zeros((4, 2)), np.array([0, 1, 0, 1]), np.ones(2))
        assert abs(value - math.log(2)) <= 1e-12

    def test_aux_vanishes_at_large_margin(self):
        logits = np.array([[30.0, 0.0]])
        assert loss_aux(logits, np.array([0]), np.ones(2)) < 1e-6

    def test_aux_matches_main_on_softmax(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(32, 2)) * 3.0
        labels = rng.integers(0, 2, 32)
        w = np.array([2.0, 0.7])
        softmax = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        assert abs(loss_aux(logits, labels, w) - loss_main(softmax, labels, w)) <= 1e-12

    def test_overall_decomposition(self):
        model, inputs, labels = tiny_fusion_setup(seed=8, n=16)
        total = float(loss_overall(model, inputs, labels))
        from evidfuse.model import batch_internals
        fused, aux_logits = batch_internals(model, inputs)
        manual = float(loss_main(fused.probs, labels, model.class_weights))
        for src, logits in zip(model.sources, aux_logits):
            manual += src.spec.aux_weight * float(loss_aux(logits, labels, model.class_weights))
        assert abs(total - manual) <= 1e-12

    def test_zero_aux_weights_reduce_to_main(self):
        model, inputs, labels = tiny_fusion_setup(seed=9, n=12)
        for src in model.sources:
            object.__setattr__(src.spec, "aux_weight", 0.0)
        from evidfuse.model import batch_internals
        total = float(loss_overall(model, inputs, labels))
        probs = batch_internals(model, inputs)[0].probs
        assert abs(total - float(loss_main(probs, labels, model.class_weights))) <= 1e-12


class TestLossAndGrad:
    def test_label_count_mismatch_rejected(self):
        model, inputs, labels = tiny_fusion_setup(seed=23, n=40)
        with pytest.raises(DataError, match="30 labels for input blocks of \\[40\\] rows"):
            loss_overall(model, inputs, labels[:30])

    def test_deterministic(self):
        model, inputs, labels = tiny_fusion_setup(seed=10, n=10)
        l1, g1 = loss_and_grad(model, inputs, labels)
        l2, g2 = loss_and_grad(model, inputs, labels)
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)

    def test_duplicated_sample_contributes_additively(self):
        model, inputs, labels = tiny_fusion_setup(seed=11, n=4)
        single = []
        for i in range(2):
            _, g = loss_and_grad(model, [x[i:i + 1] for x in inputs], labels[i:i + 1])
            single.append(g)
        _, combined = loss_and_grad(
            model,
            [np.vstack([x[0], x[1], x[1]]) for x in inputs],
            np.array([labels[0], labels[1], labels[1]]),
        )
        expected = (single[0] + 2.0 * single[1]) / 3.0
        np.testing.assert_allclose(combined, expected, atol=1e-10)

    def test_every_parameter_has_a_slot(self):
        model, inputs, labels = tiny_fusion_setup(seed=12, n=6)
        _, grad = loss_and_grad(model, inputs, labels)
        params = param_dict(model)
        slots = FlatParams.from_model(model)
        assert tuple(slots.shapes) == tuple(params)
        assert grad.shape == slots.flat.shape == (sum(v.size for v in params.values()),)
        assert {k: v.shape for k, v in slots.views(grad).items()} == {
            k: v.shape for k, v in params.items()}


class TestGradientSlots:
    """The leaves of a step accumulate into views of one flat gradient."""

    @staticmethod
    def _setup(kind, dropout):
        model, inputs, labels = tiny_fusion_setup(seed=24, n=24, encoder_kind=kind)
        masks = make_dropout_masks(model, len(labels), substream(6, "dropout")) if dropout else None
        return model, inputs, labels, masks

    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("kind", ["mlp", "resnet"])
    def test_matches_per_name_gradients(self, kind, dropout):
        model, inputs, labels, masks = self._setup(kind, dropout)
        slots = FlatParams.from_model(model)
        ref_loss, ref_grad = reference_loss_and_grad(model, inputs, labels, masks=masks)
        # twice on the same slots: each call starts from a zeroed gradient
        for _ in range(2):
            loss, grad = loss_and_grad(model, inputs, labels, params=slots, masks=masks)
            assert grad is slots.grad
            assert loss == ref_loss
            # a zeroed slot turns a -0.0 gradient into +0.0: equal as values
            assert np.array_equal(grad, ref_grad)

        # ... and Adam cannot tell them apart either
        config = TrainConfig(learning_rate=1e-3)
        stepped = []
        for g in (grad, ref_grad):
            flat = slots.flat.copy()
            adam = Adam(slots.flat.size, config)
            for _ in range(3):
                adam.update(flat, g)
            stepped.append(flat.tobytes())
        assert stepped[0] == stepped[1]

    @pytest.mark.parametrize("kind", ["mlp", "resnet"])
    def test_backward_keeps_leaf_gradients_only(self, kind):
        """The byte oracle's tape step: its leaves, recorded first, keep
        their slots in one flat gradient, and the sweep drops every
        interior node's gradient and VJP."""
        model, inputs, labels, masks = self._setup(kind, dropout=True)
        tape = ad.Tape()
        _, grad = taped_loss_and_grad(model, inputs, labels, masks=masks, tape=tape)
        n_leaves = len(param_dict(model))
        leaves, interior = tape.nodes[:n_leaves], tape.nodes[n_leaves:]
        assert interior and tape.swept
        views = FlatParams.from_model(model).views(grad)
        for leaf, slot in zip(leaves, views.values()):
            assert leaf.grad is not None and np.shares_memory(leaf.grad, grad)
            np.testing.assert_array_equal(leaf.grad, slot)
        assert all(node.grad is None and node._bwd is None for node in interior)


class TestFusedObjective:
    """``loss_and_grad``'s value and gradient must match the chained-op
    reference built from taped ops."""

    @staticmethod
    def _setup(kind, zero_aux):
        model, inputs, labels = tiny_fusion_setup(seed=13, n=24, encoder_kind=kind)
        if zero_aux:
            src = model.sources[1]
            src.spec = replace(src.spec, aux_weight=0.0)
        masks = make_dropout_masks(model, len(labels), substream(4, "dropout"))
        return model, inputs, labels, masks

    @pytest.mark.parametrize("zero_aux", [False, True])
    @pytest.mark.parametrize("kind", ["mlp", "resnet"])
    def test_matches_chained_oracle(self, kind, zero_aux):
        model, inputs, labels, masks = self._setup(kind, zero_aux)
        loss, grad = loss_and_grad(model, inputs, labels, masks=masks)
        grads = FlatParams.from_model(model).views(grad)

        tape = ad.Tape()
        leaves = {k: tape.leaf(v) for k, v in param_dict(model).items()}
        ref = chained_loss_overall(model, inputs, labels, params=leaves, masks=masks)
        tape.backward(ref)
        assert abs(loss - float(ref.value)) <= 1e-12 * abs(loss)
        assert set(grads) == set(leaves)
        for name, leaf in leaves.items():
            expected = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
            np.testing.assert_allclose(grads[name], expected, rtol=1e-12, atol=1e-12,
                                       err_msg=name)
        if zero_aux:
            for key in ("w", "b"):
                np.testing.assert_array_equal(grads[f"src1.aux.{key}"], 0.0)

    def test_floored_rows_match_chained_oracle(self):
        """Saturated prototypes that all favour class 1 push two class-0
        rows' true-class probability below PROB_FLOOR (one to ~1e-13, close
        enough that an unclamped 1/p gradient would show); the main loss
        clamps and passes no gradient to those rows, as the reference does."""
        model, inputs, labels = tiny_fusion_setup(seed=1, n=8)
        for src in model.sources:
            h = src.enn.support_raw.shape[0]
            src.enn = replace(src.enn, support_raw=np.full(h, 25.0),
                              scale_raw=np.full(h, 0.1),
                              membership_raw=np.tile([0.0, 20.0], (h, 1)))
        p_true = predict_probs(model, inputs)[np.arange(len(labels)), labels]
        floored = p_true <= evidfuse.model.PROB_FLOOR
        assert floored.sum() == 2 and np.all(p_true[floored] > 1e-20)

        loss, grad = loss_and_grad(model, inputs, labels)
        grads = FlatParams.from_model(model).views(grad)
        tape = ad.Tape()
        leaves = {k: tape.leaf(v) for k, v in param_dict(model).items()}
        ref = chained_loss_overall(model, inputs, labels, params=leaves)
        tape.backward(ref)
        assert abs(loss - float(ref.value)) <= 1e-12 * abs(loss)
        for name, leaf in leaves.items():
            expected = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
            np.testing.assert_allclose(grads[name], expected, rtol=1e-12, atol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("kind", ["mlp", "resnet"])
    def test_sweep_frees_each_sources_forward_state(self, monkeypatch, kind):
        """Every group's (G, N, H) distances, closeness and activations
        live in the step's workspace: the steps on one ``FlatParams``
        write the same arrays, and with the cyclic collector off,
        reference counting alone frees them once the step and its
        ``FlatParams`` are gone.  The two sources are one group."""
        model, inputs, labels, masks = self._setup(kind, zero_aux=False)
        seen = []

        def recording_evidence_batch(*args, **kwargs):
            ev = evidence_batch(*args, **kwargs)
            seen.append((ev.sq_dist, ev.closeness, ev.activation))
            return ev

        monkeypatch.setattr(evidfuse.model, "evidence_batch", recording_evidence_batch)
        slots = FlatParams.from_model(model)
        for _ in range(2):
            loss_and_grad(model, inputs, labels, params=slots, masks=masks)
        assert len(seen) == 2           # one group per step
        first, second = seen
        assert all(a is b for a, b in zip(first, second))
        seen.clear()
        del slots, first, second
        gc.disable()
        try:
            loss_and_grad(model, inputs, labels, masks=masks)
            refs = [weakref.ref(a) for arrays in seen for a in arrays]
            seen.clear()
            alive = [ref() is not None for ref in refs]
        finally:
            gc.enable()
        assert len(alive) == 3 and not any(alive)

    # the byte oracle's tape step, leaves + nodes.  MLP source: 12 leaves,
    # 3 encoder + 1 aux-head nodes; text source: 10 leaves, 2 + 1 nodes;
    # ResNet source: 20 leaves, 1 + 3 * 3 + 1 nodes; then one fusion node
    # and one objective node
    @pytest.mark.parametrize("kind,expected", [("mlp", 31), ("resnet", 46)])
    def test_tape_nodes_per_step(self, kind, expected):
        model, inputs, labels, masks = self._setup(kind, zero_aux=False)
        tape = ad.Tape()
        taped_loss_and_grad(model, inputs, labels, masks=masks, tape=tape)
        assert len(tape.nodes) == expected


# per model kind beyond tiny_fusion_setup's two sources: each source's
# prototype count.  Five ResNet sources at batch 32 are one group; unequal
# counts split the sources into groups {0, 1}, {2}, {3} and {4}
MANY_SOURCES = {"resnet-x5": (3,) * 5, "unequal-h": (3, 3, 4, 3, 4)}


def step_setup(kind, seed, n, hidden=8):
    """tiny_fusion_setup's MLP or ResNet source beside the text head, or
    one of the ``MANY_SOURCES`` models of ResNet sources."""
    if kind in MANY_SOURCES:
        return many_source_setup(MANY_SOURCES[kind], seed=seed, n=n, hidden=hidden)
    return tiny_fusion_setup(seed=seed, n=n, encoder_kind=kind, hidden=hidden)


class TestTapeFreeStep:
    """``loss_and_grad`` returns the loss of the tape step
    (``helpers.taped_loss_and_grad``) and the same bytes for every
    gradient."""

    @staticmethod
    def assert_matches_the_tape_step(model, inputs, labels, masks=None, params=None):
        loss, grad = loss_and_grad(model, inputs, labels, params=params, masks=masks)
        want_loss, want = taped_loss_and_grad(model, inputs, labels, masks=masks)
        assert loss == want_loss
        views = FlatParams.from_model(model).views
        for (name, got), expected in zip(views(grad).items(), views(want).values()):
            assert got.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("zero_aux", [False, True], ids=["aux", "zero-aux"])
    @pytest.mark.parametrize("dropout", [False, True], ids=["eval", "dropout"])
    @pytest.mark.parametrize("kind", ["mlp", "resnet", *MANY_SOURCES])
    def test_matches_the_tape_step(self, kind, dropout, zero_aux):
        """MLP or ResNet beside the text head, or five ResNet sources (in
        one group, or in groups of unequal H) at batch 32; the second
        source's aux weight is 0 in the zero-aux cases, so it gets no aux
        gradient."""
        model, inputs, labels = step_setup(kind, seed=24, n=32 if kind in MANY_SOURCES else 24)
        if zero_aux:
            src = model.sources[1]
            src.spec = replace(src.spec, aux_weight=0.0)
        masks = make_dropout_masks(model, len(labels), substream(6, "dropout")) if dropout else None
        self.assert_matches_the_tape_step(model, inputs, labels, masks)

    def test_floored_rows(self):
        """Two rows' true-class probability below PROB_FLOOR (see
        ``TestFusedObjective.test_floored_rows_match_chained_oracle``)."""
        model, inputs, labels = tiny_fusion_setup(seed=1, n=8)
        for src in model.sources:
            h = src.enn.support_raw.shape[0]
            src.enn = replace(src.enn, support_raw=np.full(h, 25.0), scale_raw=np.full(h, 0.1),
                              membership_raw=np.tile([0.0, 20.0], (h, 1)))
        p_true = predict_probs(model, inputs)[np.arange(len(labels)), labels]
        assert (p_true <= evidfuse.model.PROB_FLOOR).sum() == 2
        self.assert_matches_the_tape_step(model, inputs, labels)

    @pytest.mark.parametrize("kind", ["mlp", "resnet", *MANY_SOURCES])
    def test_ragged_batch_after_a_full_one(self, kind):
        """As in ``train``: a model whose arrays are views of one
        ``FlatParams``, whose workspace serves a full batch, then a ragged
        one in views of the same storage, then a full one again."""
        model, inputs, labels = step_setup(kind, seed=25, n=40)
        slots = FlatParams.from_model(model)
        live = with_params(model, slots.params)
        rng = substream(7, "dropout")
        for rows in (slice(0, 32), slice(32, 40), slice(8, 40)):
            batch = [x[rows] for x in inputs]
            masks = make_dropout_masks(model, len(batch[0]), rng)
            self.assert_matches_the_tape_step(live, batch, labels[rows], masks, params=slots)

    @pytest.mark.parametrize("kind", ["mlp", *MANY_SOURCES])
    def test_reads_every_parameter_from_the_model(self, kind):
        """``params`` supplies the gradient slots and the workspace: a
        step given a ``FlatParams`` whose values differ from the model's,
        or a model whose arrays are views of another ``FlatParams``,
        computes at the model's values."""
        model, inputs, labels = step_setup(kind, seed=26, n=32)
        other = FlatParams.from_model(model)
        other.flat[:] += 0.5
        self.assert_matches_the_tape_step(model, inputs, labels, params=other)
        live = with_params(model, FlatParams.from_model(model).params)
        self.assert_matches_the_tape_step(live, inputs, labels, params=other)


class TestStepMatchesEval:
    """Without dropout a training step's forward has the eval pass's
    bits: ``loss_and_grad`` returns ``loss_overall``'s loss exactly, also
    where the eval pass encodes in more than one row block."""

    @pytest.mark.parametrize("n", [24, 2 * ENCODE_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("kind", ["mlp", "resnet", "resnet-x5"])
    def test_loss_equals_the_eval_loss(self, kind, n):
        model, inputs, labels = step_setup(kind, seed=5, n=n, hidden=32)
        assert loss_and_grad(model, inputs, labels)[0] == float(
            loss_overall(model, inputs, labels))


class TestStepGarbage:
    @pytest.mark.parametrize("kind", ["mlp", "resnet"])
    def test_one_step_leaves_no_cyclic_garbage(self, kind):
        """Nothing a step makes refers back to itself, so with the cyclic
        collector off there is nothing left for it to collect."""
        model, inputs, labels = tiny_fusion_setup(seed=24, n=24, encoder_kind=kind)
        masks = make_dropout_masks(model, len(labels), substream(6, "dropout"))
        gc.collect()
        gc.disable()
        try:
            loss_and_grad(model, inputs, labels, masks=masks)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _traced_peak(fn, *args, **kwargs):
    """fn's result and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedPasses:
    """Off the tape the encoders run in row blocks; each result keeps the
    bits of one whole-split forward."""

    @pytest.mark.parametrize("kind", ["mlp", "resnet"])
    def test_match_one_whole_forward(self, monkeypatch, kind):
        def run():
            model, inputs, labels = tiny_fusion_setup(
                seed=3, n=2 * ENCODE_BLOCK_ROWS + 1, encoder_kind=kind, hidden=32)
            preds = predict_batch(model, inputs)
            result = train(model, inputs, labels, inputs, labels,
                           TrainConfig(batch_size=1024, max_epochs=1, patience=0, seed=4))
            return (param_dict(model), preds, predict_probs(model, inputs),
                    result.history, param_dict(result.model))

        got = run()
        with monkeypatch.context() as mp:
            mp.setattr(evidfuse.model, "encode_blocks",
                       lambda encoder, x: encoder.forward(x)[0])
            want = run()
        init_params, preds, probs, history, trained = got
        for name, value in want[0].items():   # init_model's prototypes among them
            assert init_params[name].tobytes() == value.tobytes(), name
        for f in fields(preds):
            assert getattr(preds, f.name).tobytes() == getattr(want[1], f.name).tobytes(), f.name
        assert probs.tobytes() == want[2].tobytes()
        assert history == want[3]               # the per-epoch validation loss
        for name, value in want[4].items():
            assert trained[name].tobytes() == value.tobytes(), name

    def test_memory_does_not_grow_with_rows_times_hidden_width(self):
        """Adding n rows grows the peaks of init_model and predict_probs
        by under a quarter of the n * hidden * 8 bytes that a whole-split
        hidden layer would add."""
        hidden = 512
        specs = [SourceSpec("struct", "mlp", aux_weight=1.0),
                 SourceSpec("notes", "text-head", aux_weight=1.0)]
        overrides = {"struct": {"hidden_dim": 8, "output_dim": 8},
                     "notes": {"hidden_dim": hidden, "output_dim": 8}}

        def peaks(n):
            rng = np.random.default_rng(0)
            inputs, labels = [rng.normal(size=(n, 4)), rng.normal(size=(n, 8))], rng.integers(0, 2, n)
            model, init_peak = _traced_peak(init_model, F2, specs, inputs, labels, seed=0,
                                            prototypes=3, encoder_overrides=overrides)
            return init_peak, _traced_peak(predict_probs, model, inputs)[1]

        n = 2 * ENCODE_BLOCK_ROWS
        for small, large in zip(peaks(n), peaks(2 * n)):
            assert large - small < n * hidden * 8 / 4, (small, large)


class TestFusionLaws:
    """Dempster's rule as the production path runs it: a source with no
    evidence is its neutral element, and relabelling the classes or
    reordering the sources changes nothing it fuses."""

    @staticmethod
    def with_sources(model, sources, class_weights=None):
        return FusionModel(model.frame, sources,
                           model.class_weights if class_weights is None else class_weights)

    def test_source_without_evidence_changes_no_bits(self):
        """Prototypes far from every row make each activation exactly 0;
        with aux weight 0 such a source changes no probability and no
        other gradient, and gets an all-zero gradient itself."""
        model, inputs, labels = tiny_fusion_setup()
        src = model.sources[0]
        far = FusionSource(SourceSpec("far", src.spec.encoder_kind, aux_weight=0.0), src.encoder,
                           replace(src.enn, prototypes=src.enn.prototypes + 1e3), src.aux)
        z = encode_blocks(far.encoder, inputs[0])
        assert not evidence_batch(z[None], *(a[None] for a in far.enn.as_param_dict().values())
                                  ).activation.any()
        probs = predict_probs(model, inputs)
        for at in range(3):
            sources, blocks = list(model.sources), list(inputs)
            sources.insert(at, far)
            blocks.insert(at, inputs[0])
            assert predict_probs(self.with_sources(model, sources), blocks).tobytes() == (
                probs.tobytes()), at
        loss, grad = loss_and_grad(model, inputs, labels)
        with_far = self.with_sources(model, [*model.sources, far])
        far_loss, far_grad = loss_and_grad(with_far, [*inputs, inputs[0]], labels)
        assert far_loss == loss
        far_grads = FlatParams.from_model(with_far).views(far_grad)
        for name, g in FlatParams.from_model(model).views(grad).items():
            assert far_grads[name].tobytes() == g.tobytes(), name
        own = [g for name, g in far_grads.items() if name.startswith("src2.")]
        assert own and not any(g.any() for g in own)

    def test_swapping_the_classes_swaps_the_probabilities(self):
        model, inputs, _ = tiny_fusion_setup()
        swapped = self.with_sources(model, [
            FusionSource(src.spec, src.encoder,
                         replace(src.enn, membership_raw=src.enn.membership_raw[:, ::-1]),
                         replace(src.aux, params={"w": src.aux.params["w"][:, ::-1],
                                                  "b": src.aux.params["b"][::-1]}))
            for src in model.sources], model.class_weights[::-1])
        probs = predict_probs(model, inputs)
        assert predict_probs(swapped, inputs)[:, ::-1].tobytes() == probs.tobytes()

    def test_reordering_the_sources_moves_no_probability_by_more_than_1e_15(self):
        model, inputs, _ = tiny_fusion_setup(seed=0)
        other, other_inputs, _ = tiny_fusion_setup(seed=1)
        third = replace(other.sources[0], spec=replace(other.sources[0].spec, name="struct2"))
        sources, blocks = [*model.sources, third], [*inputs, other_inputs[0]]
        probs = predict_probs(self.with_sources(model, sources), blocks)
        for order in itertools.permutations(range(3)):
            moved = predict_probs(self.with_sources(model, [sources[i] for i in order]),
                                  [blocks[i] for i in order])
            assert np.abs(moved - probs).max() <= 1e-15, order


class TestTraining:
    def test_zero_learning_rate_freezes_model(self):
        model, inputs, labels = tiny_fusion_setup(seed=13, n=30)
        before = {k: v.copy() for k, v in param_dict(model).items()}
        result = train(model, inputs, labels, inputs, labels,
                       TrainConfig(batch_size=8, max_epochs=3, patience=0,
                                   learning_rate=0.0, seed=5))
        after = param_dict(result.model)
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])
        val_losses = [h["val_loss"] for h in result.history]
        assert max(val_losses) - min(val_losses) <= 1e-15

    def test_identical_seeds_identical_runs(self):
        def run():
            model, inputs, labels = tiny_fusion_setup(seed=14, n=40)
            return train(model, inputs, labels, inputs, labels,
                         TrainConfig(batch_size=8, max_epochs=4, patience=0, seed=21))

        r1, r2 = run(), run()
        assert r1.history == r2.history
        p1, p2 = param_dict(r1.model), param_dict(r2.model)
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])

    def test_learns_separable_data(self):
        model, inputs, labels = tiny_fusion_setup(seed=15, n=120, separation=6.0)
        result = train(model, inputs, labels, inputs, labels,
                       TrainConfig(batch_size=16, max_epochs=25, patience=0, seed=3))
        probs = predict_probs(result.model, inputs)[:, 1]
        accuracy = np.mean((probs > 0.5).astype(int) == labels)
        assert accuracy >= 0.9

    def test_returned_model_hits_best_validation_loss(self):
        model, inputs, labels = tiny_fusion_setup(seed=16, n=40)
        result = train(model, inputs, labels, inputs, labels,
                       TrainConfig(batch_size=8, max_epochs=6, patience=0, seed=9))
        best_recorded = min(h["val_loss"] for h in result.history)
        assert result.best_val_loss == best_recorded
        replayed = float(loss_overall(result.model, inputs, labels))
        assert abs(replayed - best_recorded) <= 1e-12

    def test_divergence_names_the_epoch(self):
        model, inputs, labels = tiny_fusion_setup(seed=17, n=20)
        with np.errstate(all="ignore"):  # the blow-up itself is the point
            with pytest.raises(TrainingDivergedError,
                               match="^training loss diverged at epoch 0$") as excinfo:
                train(model, inputs, labels, inputs, labels,
                      TrainConfig(batch_size=8, max_epochs=10, patience=0,
                                  learning_rate=1e200, seed=1))
        cause = excinfo.value.__cause__
        assert isinstance(cause, TrainingDivergedError)
        assert str(cause).startswith("non-finite loss")

    def test_validation_divergence_names_the_epoch(self):
        model, inputs, labels = tiny_fusion_setup(seed=17, n=20)
        huge = [np.sign(x) * np.finfo(float).max for x in inputs]
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError,
                               match="^validation loss diverged at epoch 0$"):
                train(model, inputs, labels, huge, labels,
                      TrainConfig(batch_size=8, max_epochs=2, patience=0, seed=1))

    def test_early_stopping_bounds_epochs(self):
        model, inputs, labels = tiny_fusion_setup(seed=18, n=30)
        result = train(model, inputs, labels, inputs, labels,
                       TrainConfig(batch_size=8, max_epochs=50, patience=2,
                                   learning_rate=0.0, seed=2))
        # flat validation curve: first epoch is best, stop after patience more
        assert len(result.history) == 3

    @pytest.mark.parametrize("fault", ["train", "val", "val-nan", "train-last-nan"])
    def test_label_count_mismatch_rejected_before_any_step(self, monkeypatch, fault):
        """Bad labels or inputs in either split fail before the first step."""
        model, inputs, labels = tiny_fusion_setup(seed=22, n=40)
        monkeypatch.setattr(evidfuse.model, "loss_and_grad",
                            lambda *a, **k: pytest.fail("a training step ran"))
        train_inputs, val_inputs = list(inputs), list(inputs)
        train_labels, val_labels = labels, labels
        match = "30 labels for input blocks of \\[40\\] rows"
        if fault == "train":
            train_labels = labels[:30]
        elif fault == "val":
            val_labels = labels[:30]
        else:
            split = val_inputs if fault == "val-nan" else train_inputs
            split[1] = inputs[1].copy()
            split[1][-1, 0] = np.nan
            match = "source 'notes': non-finite input"
        with pytest.raises(DataError, match=match):
            train(model, train_inputs, train_labels, val_inputs, val_labels,
                  TrainConfig(batch_size=8, max_epochs=1, seed=0))


class TestInputChecks:
    """Rows are checked once, by the public call that receives them; the
    training steps and validation epochs inside ``train`` trust them."""

    @staticmethod
    def _count_checks(monkeypatch):
        calls = []
        original = evidfuse.model._check_inputs

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(evidfuse.model, "_check_inputs", counting)
        return calls

    def test_train_checks_each_split_once(self, monkeypatch):
        model, inputs, labels = tiny_fusion_setup(seed=25, n=40)
        calls = self._count_checks(monkeypatch)
        steps = []
        original = evidfuse.model.loss_and_grad
        monkeypatch.setattr(evidfuse.model, "loss_and_grad",
                            lambda *a, **k: steps.append(1) or original(*a, **k))
        result = train(model, inputs, labels, inputs, labels,
                       TrainConfig(batch_size=8, max_epochs=3, patience=0, seed=1))
        assert len(result.history) == 3 and len(steps) == 15
        assert len(calls) == 2

    @pytest.mark.parametrize("predict", [predict_probs, predict_batch])
    def test_a_prediction_checks_its_rows_once(self, monkeypatch, predict):
        model, inputs, _ = tiny_fusion_setup(seed=26, n=12)
        calls = self._count_checks(monkeypatch)
        predict(model, inputs)
        assert len(calls) == 1

    def test_init_model_checks_its_rows_once(self, monkeypatch):
        calls = self._count_checks(monkeypatch)
        tiny_fusion_setup(seed=27, n=12)
        assert len(calls) == 1

    @pytest.mark.parametrize("fault,match", [
        ("not-a-matrix", r"source 'notes' expects \(N, D\) inputs, got \(40,\)"),
        ("non-finite", "source 'notes': non-finite input"),
        ("rows-disagree", "per-source input blocks disagree on batch size"),
    ], ids=["not-a-matrix", "non-finite", "rows-disagree"])
    def test_init_model_rejects_bad_rows(self, fault, match):
        _, inputs, labels = tiny_fusion_setup(seed=22, n=40)
        specs = [SourceSpec("struct", "mlp", aux_weight=1.0),
                 SourceSpec("notes", "text-head", aux_weight=1.0)]
        notes = inputs[1].copy()
        if fault == "not-a-matrix":
            notes = notes[:, 0]
        elif fault == "non-finite":
            notes[5, 1] = np.inf
        else:
            notes = notes[:-1]
        with pytest.raises(DataError, match=match):
            init_model(F2, specs, [inputs[0], notes], labels, seed=0, prototypes=3)


class TestFlatAdam:
    def test_returned_model_does_not_alias_optimizer_buffer(self, monkeypatch):
        model, inputs, labels = tiny_fusion_setup(seed=22, n=24)
        seen = []
        original = evidfuse.model.loss_and_grad

        def recording(model_, inputs_, labels_, params=None, masks=None):
            seen.append(params)
            return original(model_, inputs_, labels_, params=params, masks=masks)

        monkeypatch.setattr(evidfuse.model, "loss_and_grad", recording)
        # steadily falling validation loss: the last epoch is the best one
        result = train(model, inputs, labels, inputs, labels,
                       TrainConfig(batch_size=8, max_epochs=2, patience=0, seed=4))
        assert result.best_epoch == 1
        returned = {k: v.copy() for k, v in param_dict(result.model).items()}
        for arr in seen[-1].params.values():
            arr[...] = 12345.0   # the optimizer's flat buffer, through its views
        for k, v in param_dict(result.model).items():
            np.testing.assert_array_equal(v, returned[k])

    def test_step_matches_per_name_reference(self):
        rng = np.random.default_rng(23)
        params = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4), "c": rng.normal(size=())}
        grads = [{k: rng.normal(size=np.shape(v)) for k, v in params.items()} for _ in range(3)]
        config = TrainConfig(learning_rate=0.01)
        def flatten(named):
            return np.concatenate([np.reshape(v, -1) for v in named.values()])

        flat = flatten(params)
        adam = Adam(flat.size, config)
        for g in grads:
            adam.update(flat, flatten(g))

        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        ref = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v = {k: np.zeros_like(x) for k, x in params.items()}
        for step, g in enumerate(grads, start=1):
            correction = np.sqrt(1.0 - b2 ** step) / (1.0 - b1 ** step)
            for name in params:
                m[name] = b1 * m[name] + (1.0 - b1) * g[name]
                v[name] = b2 * v[name] + (1.0 - b2) * (g[name] * g[name])
                ref[name] = ref[name] - lr * correction * m[name] / (np.sqrt(v[name]) + eps)
        np.testing.assert_array_equal(flat, flatten(ref))


def seeded_model():
    """A model of three sources (MLP, ResNet, text head) from seeded draws
    alone, with a -0.0 entry: no matrix product made its bits, so they do
    not depend on the BLAS."""
    rng = np.random.default_rng(41)
    sources = []
    for name, kind, width, dims in (("struct", "mlp", 4, {"hidden_dim": 5}),
                                    ("blocks", "resnet", 3, {}),
                                    ("notes", "text-head", 2, {"hidden_dim": 5})):
        encoder = init_encoder(kind, width, rng, output_dim=4, **dims)
        enn = EnnParams(rng.normal(size=(3, 4)), rng.normal(size=3), rng.normal(size=3),
                        rng.normal(size=(3, 2)))
        sources.append(FusionSource(SourceSpec(name, kind, aux_weight=0.5), encoder, enn,
                                    init_aux_head(4, 2, rng)))
    sources[0].enn.prototypes[0, 1] = -0.0
    return FusionModel(Frame(("0", "1")), sources, np.array([0.75, 1.5]))


def write_doc(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def malformed(path):
    return f"^malformed checkpoint {re.escape(str(path))}: "


def set_f8(array, values):
    """Replace a version-2 array's bytes by those of ``values``."""
    array["f8"] = list_as_f8(values)["f8"]


def decoded(array):
    return np.asarray(f8_as_list(array))


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        """MLP and ResNet models alike: every array loads with the bits it
        was saved with, -0.0 included, as a native-endian, writable float64
        array."""
        for kind in ("mlp", "resnet"):
            self._assert_round_trip(tmp_path, kind)

    @staticmethod
    def _assert_round_trip(tmp_path, kind):
        model, _, _ = tiny_fusion_setup(seed=19, n=20, encoder_kind=kind)
        params = param_dict(model)
        params["src0.encoder.w0" if kind == "mlp" else "src0.encoder.w_in"][0, 1] = -0.0
        params["src1.enn.prototypes"][1, 0] = -0.0
        path = tmp_path / "model.json"
        save_checkpoint(model, str(path), config_hash="abc123", extra={"seed": 7})
        loaded, doc = load_checkpoint(str(path))
        assert doc["format_version"] == 2
        assert doc["config_hash"] == "abc123"
        assert doc["extra"] == {"seed": 7}
        restored = param_dict(loaded)
        assert list(restored) == list(params)
        for k, v in params.items():
            got = restored[k]
            assert got.dtype == np.float64 and got.dtype.isnative, k
            assert got.flags.writeable and got.shape == v.shape, k
            assert got.tobytes() == v.tobytes(), k
        assert loaded.frame == model.frame
        assert loaded.class_weights.tobytes() == model.class_weights.tobytes()

    def test_arrays_are_base64_of_little_endian_float64(self, tmp_path):
        model = seeded_model()
        path = tmp_path / "model.json"
        save_checkpoint(model, str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        w = model.sources[1].encoder.params["w_in"]
        assert doc["sources"][1]["encoder"]["params"]["w_in"] == {
            "shape": [3, 4], "f8": base64.b64encode(w.astype("<f8").tobytes()).decode("ascii")}
        assert doc["class_weights"] == [0.75, 1.5]

    def test_version_1_rewrite_has_the_version_1_writer_bytes(self, tmp_path):
        """Pinned: the sha256 of the version-1 writer's checkpoint of
        ``seeded_model``."""
        path = tmp_path / "model.json"
        save_checkpoint(seeded_model(), str(path), config_hash="abc123", extra={"seed": 7})
        assert hashlib.sha256(path.read_bytes()).hexdigest() != VERSION_1_SHA256
        checkpoint_as_version_1(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == VERSION_1_SHA256

    def test_both_versions_load_the_same_bits(self, tmp_path):
        model, inputs, _ = tiny_fusion_setup(seed=19, n=20, encoder_kind="resnet")
        path = tmp_path / "model.json"
        save_checkpoint(model, str(path))
        version_2 = param_dict(load_checkpoint(str(path))[0])
        loaded, doc = load_checkpoint(checkpoint_as_version_1(str(path)))
        assert doc["format_version"] == 1
        assert isinstance(doc["sources"][0]["encoder"]["params"]["w_in"], list)
        for k, v in param_dict(loaded).items():
            assert v.tobytes() == version_2[k].tobytes() and v.flags.writeable, k
        assert predict_probs(loaded, inputs).tobytes() == predict_probs(model, inputs).tobytes()

    def test_version_checked(self, tmp_path):
        """An unsupported version names the path and the supported versions."""
        doc = model_to_json_dict(tiny_fusion_setup(seed=20, n=20)[0])
        for version in (0, 3, 99, True, 2.0, "2", None):
            doc["format_version"] = version
            path = write_doc(tmp_path / "model.json", doc)
            with pytest.raises(DataError, match=malformed(path) + re.escape(
                    f"DataError: unsupported checkpoint version {version!r}; "
                    "supported versions: 1, 2") + "$"):
                load_checkpoint(path)

    @pytest.mark.parametrize("fault", [
        "encoder-weight-shape", "encoder-weight-missing", "encoder-bias-nan",
        "prototype-width", "aux-weight-shape", "aux-bias-missing", "aux-extra-parameter",
        "aux-input-width", "aux-class-count", "resnet-block-count",
    ])
    def test_malformed_component_rejected(self, tmp_path, fault):
        """Each fault, made on the nested lists of a version-1 document, is
        rejected in that document and in its version-2 encoding."""
        model, inputs, _ = tiny_fusion_setup(
            seed=19, n=20, encoder_kind="resnet" if fault == "resnet-block-count" else "mlp")
        for version in (1, 2):
            doc = checkpoint_doc_as_version_1(model_to_json_dict(model))
            struct = doc["sources"][0]
            encoder, aux = struct["encoder"]["params"], struct["aux"]["params"]
            if fault == "encoder-weight-shape":
                encoder["w0"] = encoder["w0"][:-1]
            elif fault == "encoder-weight-missing":
                del encoder["w2"]
            elif fault == "encoder-bias-nan":
                encoder["b1"][0] = float("nan")
            elif fault == "prototype-width":
                struct["enn"]["prototypes"] = [row[:5] for row in struct["enn"]["prototypes"]]
            elif fault == "aux-weight-shape":
                aux["w"] = aux["w"][:-1]
            elif fault == "aux-bias-missing":
                del aux["b"]
            elif fault == "aux-extra-parameter":
                aux["z"] = [0.0]
            elif fault == "aux-input-width":
                struct["aux"]["input_dim"] += 1
            elif fault == "aux-class-count":
                struct["aux"]["n_classes"] = 3
            else:  # the third block's parameters would go unused
                struct["encoder"]["n_blocks"] = 2
            if version == 2:
                doc["format_version"] = 2
                checkpoint_arrays(doc, list_as_f8)
            path = write_doc(tmp_path / f"model-{version}.json", doc)
            with pytest.raises(DataError, match=malformed(path) + "DataError: source 'struct'"):
                load_checkpoint(path)
        # the unedited document loads and scores
        path = write_doc(tmp_path / "model.json", model_to_json_dict(model))
        np.testing.assert_array_equal(predict_probs(load_checkpoint(path)[0], inputs),
                                      predict_probs(model, inputs))

    @pytest.mark.parametrize("edit,message", [
        (lambda w: w.update(shape=32), "ValueError: shape 32 is not a list of non-negative integers"),
        (lambda w: w.update(shape=[4, -8]),
         r"ValueError: shape \[4, -8\] is not a list of non-negative integers"),
        (lambda w: w.update(shape=[True, 32]),
         r"ValueError: shape \[True, 32\] is not a list of non-negative integers"),
        (lambda w: w.update(shape=[4.0, 8]),
         r"ValueError: shape \[4.0, 8\] is not a list of non-negative integers"),
        (lambda w: w.update(f8="!" + w["f8"][1:]), r"ValueError: f8 is not base64 \("),
        (lambda w: w.update(f8=w["f8"] + "\n"), r"ValueError: f8 is not base64 \("),
        (lambda w: w.update(f8=3), "TypeError: "),
        (lambda w: set_f8(w, decoded(w)[:, :-1]),
         r"ValueError: 224 bytes for shape \(4, 8\), which needs 256$"),
        (lambda w: set_f8(w, np.append(decoded(w), 0.0)),
         r"ValueError: 264 bytes for shape \(4, 8\), which needs 256$"),
        (lambda w: w.pop("f8"), "KeyError: 'f8'$"),
        (lambda w: w.pop("shape"), "KeyError: 'shape'$"),
        (lambda w: set_f8(w, np.where(np.arange(32).reshape(4, 8) == 9, np.nan, decoded(w))),
         "non-finite values$"),
    ], ids=["shape-not-a-list", "negative-dimension", "bool-dimension", "float-dimension",
            "non-base64-character", "newline", "f8-not-a-string", "bytes-too-few",
            "bytes-too-many", "no-f8", "no-shape", "nan-in-the-bytes"])
    def test_malformed_version_2_array_rejected(self, tmp_path, edit, message):
        model, _, _ = tiny_fusion_setup(seed=19, n=20)
        doc = model_to_json_dict(model)
        w0 = doc["sources"][0]["encoder"]["params"]["w0"]
        assert w0["shape"] == [4, 8]
        edit(w0)
        path = write_doc(tmp_path / "model.json", doc)
        with pytest.raises(DataError, match=malformed(path) + "DataError: source 'struct' "
                                            "encoder parameter 'w0': " + message):
            load_checkpoint(path)

    def test_version_1_array_in_a_version_2_document_rejected(self, tmp_path):
        doc = model_to_json_dict(tiny_fusion_setup(seed=19, n=20)[0])
        enn = doc["sources"][1]["enn"]
        enn["scale_raw"] = f8_as_list(enn["scale_raw"])
        path = write_doc(tmp_path / "model.json", doc)
        with pytest.raises(DataError, match=malformed(path) + "DataError: source 'notes' "
                                            "evidential layer parameter 'scale_raw': TypeError"):
            load_checkpoint(path)

    def test_deeply_nested_json_is_malformed(self, tmp_path):
        # json.load raises a RecursionError, which is not a ValueError
        path = tmp_path / "model.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        with pytest.raises(DataError, match=malformed(path) + "RecursionError: maximum recursion"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("name", [".", "x" * 300], ids=["directory", "name-too-long"])
    def test_path_that_cannot_be_opened(self, tmp_path, name):
        path = str(tmp_path / name)
        with pytest.raises(DataError, match=f"^cannot open checkpoint {re.escape(path)}: "):
            load_checkpoint(path)

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        """float64 cannot hold it, in a version-1 parameter array or in
        the class weights of either version."""
        doc = checkpoint_doc_as_version_1(model_to_json_dict(tiny_fusion_setup(seed=19, n=20)[0]))
        doc["sources"][1]["enn"]["scale_raw"][0] = 10 ** 400
        path = write_doc(tmp_path / "model.json", doc)
        with pytest.raises(DataError, match=malformed(path) + "DataError: source 'notes' "
                                            "evidential layer parameter 'scale_raw': "
                                            "OverflowError"):
            load_checkpoint(path)
        for version in (1, 2):
            doc = model_to_json_dict(tiny_fusion_setup(seed=19, n=20)[0])
            doc["class_weights"] = [1.0, 10 ** 400]
            if version == 1:
                checkpoint_doc_as_version_1(doc)
            path = write_doc(tmp_path / "model.json", doc)
            with pytest.raises(DataError, match=malformed(path) + "OverflowError"):
                load_checkpoint(path)

    @pytest.mark.parametrize("weight", [float("inf"), float("nan")])
    def test_non_finite_class_weight_rejected(self, tmp_path, weight):
        doc = model_to_json_dict(tiny_fusion_setup(seed=19, n=20)[0])
        doc["class_weights"] = [1.0, weight]
        path = write_doc(tmp_path / "model.json", doc)
        with pytest.raises(DataError, match=malformed(path) + "ConfigError: class weights "
                                            "must be finite and positive"):
            load_checkpoint(path)

    def test_with_params_round_trip(self):
        model, _, _ = tiny_fusion_setup(seed=21, n=20)
        params = param_dict(model)
        rebuilt = with_params(model, {k: v.copy() for k, v in params.items()})
        for k, v in param_dict(rebuilt).items():
            np.testing.assert_array_equal(v, params[k])


class TestValidation:
    def test_init_model_rejects_spec_and_input_counts_that_differ(self):
        _, inputs, labels = tiny_fusion_setup(seed=22, n=40)
        specs = [SourceSpec("struct", "mlp", aux_weight=1.0),
                 SourceSpec("notes", "text-head", aux_weight=1.0)]
        with pytest.raises(DataError, match="2 source specs for 1 input blocks"):
            init_model(F2, specs, inputs[:1], labels, seed=0, prototypes=3)

    def test_duplicate_source_names_rejected(self):
        src = constant_mass_source("same", 3, 0.0, [0.0, 0.0])
        src2 = constant_mass_source("same", 3, 0.0, [0.0, 0.0])
        with pytest.raises(ConfigError):
            FusionModel(F2, [src, src2], np.ones(2))

    def test_nonpositive_class_weights_rejected(self):
        src = constant_mass_source("a", 3, 0.0, [0.0, 0.0])
        with pytest.raises(ConfigError):
            FusionModel(F2, [src], np.array([1.0, 0.0]))

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_class_weights_rejected(self, weight):
        src = constant_mass_source("a", 3, 0.0, [0.0, 0.0])
        with pytest.raises(ConfigError, match="class weights must be finite and positive"):
            FusionModel(F2, [src], np.array([1.0, weight]))

    def test_negative_aux_weight_rejected(self):
        with pytest.raises(ConfigError):
            SourceSpec("a", "mlp", aux_weight=-1.0)
