"""Run configuration: parsing, overrides, validation and the config hash."""

import dataclasses

import pytest

from evidfuse.config import RunConfig, parse_config_text
from evidfuse.data import SyntheticConfig
from evidfuse.errors import ConfigError

BASE = "synthetic.n = 100\nprototypes = 4\n"


class TestParse:
    def test_file_values_and_comments(self):
        config = parse_config_text("# a comment\n\n" + BASE + "seeds = 1, 2\n")
        assert config.synthetic == SyntheticConfig(n=100)
        assert config.prototypes == 4
        assert config.seeds == (1, 2)

    @pytest.mark.parametrize("text", [
        "prototypes 4\n",                # no '='
        "protoypes = 4\n",               # unknown key
        "synthetic = 4\n",               # the block is set through its keys only
        "synthetic.size = 10\n",         # unknown synthetic key
        "batch_size = abc\n",            # bad int
        "learning_rate = fast\n",        # bad float
        "force = maybe\n",               # bad bool
        "custom_sources = {}\n",         # not a JSON array
        "prototypes = 0\n",              # fails validation
    ])
    def test_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config_text(BASE + text)

    def test_overrides_win_over_file_values(self):
        config = parse_config_text(BASE + "batch_size = 8\n",
                                   overrides={"batch_size": "16", "synthetic.n": "50"})
        assert config.batch_size == 16
        assert config.synthetic.n == 50
        assert config.prototypes == 4

    def test_ft_transformer_rejected(self):
        with pytest.raises(ConfigError, match="ft-transformer"):
            RunConfig(encoder="ft-transformer", synthetic=SyntheticConfig(n=100))


class TestHash:
    def test_ignores_output_dir_and_force(self):
        config = parse_config_text(BASE)
        moved = dataclasses.replace(config, output_dir="elsewhere", force=True)
        assert moved.config_hash() == config.config_hash()

    def test_changes_with_prototypes(self):
        config = parse_config_text(BASE)
        assert dataclasses.replace(config, prototypes=5).config_hash() != config.config_hash()
