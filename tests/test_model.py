"""Fusion model: batched predictions, losses, training loop, checkpoints."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

import evidfuse.model
from evidfuse.encoders import AuxHead, MlpEncoder
from evidfuse.errors import ConfigError, DataError, TrainingDivergedError
from evidfuse.evidential import EnnParams
from evidfuse.model import (
    Adam,
    Frame,
    FusionModel,
    FusionSource,
    ParamVector,
    SourceSpec,
    TrainConfig,
    init_model,
    load_checkpoint,
    loss_and_grad,
    loss_aux,
    loss_main,
    loss_overall,
    make_dropout_masks,
    model_from_json_dict,
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
from helpers import chained_loss_overall, exact_prediction, tiny_fusion_setup
from reference import SimpleMass, combine_simple, pignistic

F2 = Frame.of_size(2)


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
        total = float(ad.value_of(loss_overall(model, inputs, labels)))
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
        total = float(ad.value_of(loss_overall(model, inputs, labels)))
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
        for k in g1:
            np.testing.assert_array_equal(g1[k], g2[k])

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
        for k in combined:
            expected = (single[0][k] + 2.0 * single[1][k]) / 3.0
            np.testing.assert_allclose(combined[k], expected, atol=1e-10)

    def test_every_parameter_has_a_slot(self):
        model, inputs, labels = tiny_fusion_setup(seed=12, n=6)
        _, grads = loss_and_grad(model, inputs, labels)
        assert set(grads) == set(param_dict(model))


class TestFusedObjective:
    """``loss_overall`` records the whole objective as one node; its value
    and VJP must match the chained-op reference built from taped ops."""

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
        loss, grads = loss_and_grad(model, inputs, labels, masks=masks)

        tape = ad.Tape()
        leaves = {k: tape.leaf(v) for k, v in param_dict(model).items()}
        ref = chained_loss_overall(model, inputs, labels, params=leaves, masks=masks)
        tape.backward(ref)
        assert abs(loss - float(ref.value)) <= 1e-12 * abs(loss)
        plain = loss_overall(model, inputs, labels, masks=masks)
        assert abs(plain - float(ref.value)) <= 1e-12 * abs(loss)
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

        loss, grads = loss_and_grad(model, inputs, labels)
        tape = ad.Tape()
        leaves = {k: tape.leaf(v) for k, v in param_dict(model).items()}
        ref = chained_loss_overall(model, inputs, labels, params=leaves)
        tape.backward(ref)
        assert abs(loss - float(ref.value)) <= 1e-12 * abs(loss)
        for name, leaf in leaves.items():
            expected = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
            np.testing.assert_allclose(grads[name], expected, rtol=1e-12, atol=1e-12,
                                       err_msg=name)

    # leaves + nodes.  MLP source: 12 leaves, 5 encoder + 1 aux-head nodes;
    # text source: 10 leaves, 3 + 1 nodes; ResNet source: 20 leaves,
    # 1 + 3 * 4 + 1 nodes; then one fusion node and one objective node
    @pytest.mark.parametrize("kind,expected", [("mlp", 34), ("resnet", 50)])
    def test_tape_nodes_per_step(self, monkeypatch, kind, expected):
        model, inputs, labels, masks = self._setup(kind, zero_aux=False)
        seen = []

        class CountingTape(ad.Tape):
            def backward(self, output):
                seen.append(len(self.nodes))
                super().backward(output)

        monkeypatch.setattr(evidfuse.model, "Tape", CountingTape)
        loss_and_grad(model, inputs, labels, masks=masks)
        assert seen == [expected]


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
        replayed = float(ad.value_of(loss_overall(result.model, inputs, labels)))
        assert abs(replayed - best_recorded) <= 1e-12

    def test_divergence_aborts_with_checkpoint(self):
        model, inputs, labels = tiny_fusion_setup(seed=17, n=20)
        with np.errstate(all="ignore"):  # the blow-up itself is the point
            with pytest.raises(TrainingDivergedError) as excinfo:
                train(model, inputs, labels, inputs, labels,
                      TrainConfig(batch_size=8, max_epochs=10, patience=0,
                                  learning_rate=1e200, seed=1))
        assert excinfo.value.checkpoint is not None

    def test_early_stopping_bounds_epochs(self):
        model, inputs, labels = tiny_fusion_setup(seed=18, n=30)
        result = train(model, inputs, labels, inputs, labels,
                       TrainConfig(batch_size=8, max_epochs=50, patience=2,
                                   learning_rate=0.0, seed=2))
        # flat validation curve: first epoch is best, stop after patience more
        assert len(result.history) == 3

    @pytest.mark.parametrize("cut", ["train", "val"])
    def test_label_count_mismatch_rejected_before_any_step(self, monkeypatch, cut):
        model, inputs, labels = tiny_fusion_setup(seed=22, n=40)
        monkeypatch.setattr(evidfuse.model, "loss_and_grad",
                            lambda *a, **k: pytest.fail("a training step ran"))
        train_labels, val_labels = (labels[:30], labels) if cut == "train" else (labels, labels[:30])
        with pytest.raises(DataError, match="30 labels for input blocks of \\[40\\] rows"):
            train(model, inputs, train_labels, inputs, val_labels,
                  TrainConfig(batch_size=8, max_epochs=1, seed=0))


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
        for arr in seen[-1].values():
            arr[...] = 12345.0   # the optimizer's flat buffer, through its views
        for k, v in param_dict(result.model).items():
            np.testing.assert_array_equal(v, returned[k])

    def test_step_matches_per_name_reference(self):
        rng = np.random.default_rng(23)
        params = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4), "c": rng.normal(size=())}
        grads = [{k: rng.normal(size=np.shape(v)) for k, v in params.items()} for _ in range(3)]
        config = TrainConfig(learning_rate=0.01)
        layout = ParamVector.from_params(params)
        flat = layout.flatten(params)
        adam = Adam(layout.size, config)
        for g in grads:
            adam.update(flat, layout.flatten(g))

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
        for name, arr in layout.views(flat).items():
            np.testing.assert_array_equal(arr, ref[name])


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        model, _, _ = tiny_fusion_setup(seed=19, n=20)
        path = tmp_path / "model.json"
        save_checkpoint(model, str(path), config_hash="abc123", extra={"seed": 7})
        loaded, doc = load_checkpoint(str(path))
        assert doc["config_hash"] == "abc123"
        assert doc["extra"] == {"seed": 7}
        original = param_dict(model)
        restored = param_dict(loaded)
        assert set(original) == set(restored)
        for k in original:
            np.testing.assert_array_equal(original[k], restored[k])
        assert loaded.frame == model.frame
        np.testing.assert_array_equal(loaded.class_weights, model.class_weights)

    def test_version_checked(self):
        model, _, _ = tiny_fusion_setup(seed=20, n=20)
        doc = model_to_json_dict(model)
        doc["format_version"] = 99
        with pytest.raises(DataError):
            model_from_json_dict(doc)

    def test_with_params_round_trip(self):
        model, _, _ = tiny_fusion_setup(seed=21, n=20)
        params = param_dict(model)
        rebuilt = with_params(model, {k: v.copy() for k, v in params.items()})
        for k, v in param_dict(rebuilt).items():
            np.testing.assert_array_equal(v, params[k])


class TestValidation:
    def test_duplicate_source_names_rejected(self):
        src = constant_mass_source("same", 3, 0.0, [0.0, 0.0])
        src2 = constant_mass_source("same", 3, 0.0, [0.0, 0.0])
        with pytest.raises(ConfigError):
            FusionModel(F2, [src, src2], np.ones(2))

    def test_nonpositive_class_weights_rejected(self):
        src = constant_mass_source("a", 3, 0.0, [0.0, 0.0])
        with pytest.raises(ConfigError):
            FusionModel(F2, [src], np.array([1.0, 0.0]))

    def test_negative_aux_weight_rejected(self):
        with pytest.raises(ConfigError):
            SourceSpec("a", "mlp", aux_weight=-1.0)
