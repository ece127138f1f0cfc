"""Run configuration: validation, defaults and the config hash."""

import dataclasses
import math

import pytest

from evidfuse.config import RunConfig
from evidfuse.data import SyntheticConfig
from evidfuse.errors import ConfigError
from evidfuse.model import SourceSpec, TrainConfig

SYNTHETIC = SyntheticConfig(n=100)


def base_config(**fields):
    return RunConfig(synthetic=SYNTHETIC, prototypes=4, **fields)


class TestParse:
    """What ``RunConfig`` checks and normalises in the values it is built from."""

    @pytest.mark.parametrize("fields,message", [
        ({"prototypes": 0}, "prototypes must be >= 1"),
        ({"seeds": (1, 2, 1)}, r"seeds must be distinct, got \[1, 2, 1\]"),
        ({"max_epochs": 1.5}, "max_epochs must be an integer, got 1.5"),
        ({"prototypes": 2.5}, "prototypes must be an integer, got 2.5"),
        ({"encoder_output_dim": 8.0}, "encoder_output_dim must be an integer, got 8.0"),
        ({"text_hidden_dim": "64"}, "text_hidden_dim must be an integer, got '64'"),
        ({"batch_size": True}, "batch_size must be an integer, got True"),
        ({"patience": None}, "patience must be an integer, got None"),
        ({"n_source_blocks": 2.0}, "n_source_blocks must be an integer, got 2.0"),
        ({"seeds": (0, 1.9)}, "each seed must be an integer, got 1.9"),
        ({"seeds": (False,)}, "each seed must be an integer, got False"),
        ({"seeds": (0, -1)}, "each seed must be >= 0, got -1"),
    ], ids=["no-prototypes", "repeated-seed", "float-epochs", "float-prototypes",
            "integral-float-width", "string-hidden-width", "bool-batch", "no-patience",
            "float-blocks", "float-seed", "bool-seed", "negative-seed"])
    def test_invalid_field_rejected(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(synthetic=SYNTHETIC, **fields)

    @pytest.mark.parametrize("make,message", [
        (lambda: base_config(learning_rate=math.inf), "learning_rate must be a number >= 0"),
        (lambda: base_config(learning_rate=True), "learning_rate must be a number >= 0"),
        (lambda: base_config(learning_rate="0.1"), "learning_rate must be a number >= 0"),
        (lambda: base_config(learning_rate=math.nan), "learning_rate must be a number >= 0"),
        (lambda: base_config(learning_rate=10 ** 400), "learning_rate must be a number >= 0"),
        (lambda: base_config(aux_weight_text=math.inf), "aux_weight_text must be a number >= 0"),
        (lambda: base_config(aux_weight_structured=-1.0),
         "aux_weight_structured must be a number >= 0"),
        (lambda: base_config(fusion_grouping="custom", custom_sources=(
            {"name": "a", "features": ["n0"], "aux_weight": math.inf},)),
         "custom source 'a': aux_weight must be a number >= 0"),
        (lambda: TrainConfig(learning_rate=math.nan), "learning rate must be a number >= 0"),
        (lambda: TrainConfig(learning_rate=-math.inf), "learning rate must be a number >= 0"),
        (lambda: SourceSpec("s", "mlp", math.nan), "source 's': aux weight must be a number"),
        (lambda: SourceSpec("s", "mlp", math.inf), "source 's': aux weight must be a number"),
    ], ids=["inf-rate", "bool-rate", "string-rate", "nan-rate", "huge-int-rate", "inf-text-weight",
            "negative-structured-weight", "inf-custom-weight", "nan-train-rate",
            "minus-inf-train-rate", "nan-source-weight", "inf-source-weight"])
    def test_rate_or_weight_must_be_a_finite_number(self, make, message):
        with pytest.raises(ConfigError, match=message):
            make()

    @pytest.mark.parametrize("field,value", [
        ("batch_size", True), ("seed", True), ("batch_size", 2.5), ("max_epochs", 2.0),
        ("seed", 1.5), ("patience", False), ("patience", "3"), ("max_epochs", None),
    ])
    def test_train_counts_and_seed_must_be_integers(self, field, value):
        """A bool, a float or any other non-int count or seed is rejected
        when the ``TrainConfig`` is made, not deep inside ``train``."""
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("make", [lambda: TrainConfig(seed=-1),
                                      lambda: SyntheticConfig(n=200, seed=-1)],
                             ids=["train", "synthetic"])
    def test_negative_seed_rejected(self, make):
        """numpy's seed sequences take no negative seed; the config refuses
        it when it is made."""
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            make()

    def test_output_dir_default_ignores_the_environment(self, monkeypatch):
        monkeypatch.setenv("EVIDFUSE_OUTPUT_ROOT", "elsewhere")
        assert base_config().output_dir == "runs"

    @pytest.mark.parametrize("sources,message", [
        (["a"], "custom source entry 'a' is not an object"),
        ([5], "custom source entry 5 is not an object"),
        ([{"name": "a", "features": "n0"}],
         "custom source 'a': features must be a list of names, got 'n0'"),
        ([{"name": "a", "features": [1, 2]}],
         r"custom source 'a': features must be a list of names, got \[1, 2\]"),
    ], ids=["string-entry", "number-entry", "features-string", "features-not-names"])
    def test_malformed_custom_source_rejected(self, sources, message):
        with pytest.raises(ConfigError, match=message):
            base_config(fusion_grouping="custom", custom_sources=tuple(sources))

    def test_ft_transformer_rejected(self):
        with pytest.raises(ConfigError, match="ft-transformer"):
            RunConfig(encoder="ft-transformer", synthetic=SYNTHETIC)


class TestHash:
    def test_ignores_output_dir_and_force(self):
        config = base_config()
        moved = dataclasses.replace(config, output_dir="elsewhere", force=True)
        assert moved.config_hash() == config.config_hash()

    def test_custom_sources_hash_is_stable(self):
        config = RunConfig(synthetic=SYNTHETIC, fusion_grouping="custom",
                           custom_sources=({"name": "labs", "features": ["x0", "x1"],
                                            "encoder": "resnet", "aux_weight": 0.5},
                                           {"name": "text", "embedding": True}))
        assert config.config_hash() == "a5a5b635f361cb4d"

    def test_changes_with_prototypes(self):
        config = base_config()
        assert dataclasses.replace(config, prototypes=5).config_hash() != config.config_hash()
