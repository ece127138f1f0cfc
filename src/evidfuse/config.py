"""Run configuration: validation and hashing.

A run is configured by building a ``RunConfig`` in Python; it checks
every field it can without the dataset.  The config hash covers every
field that affects results, so artifacts can assert exactly which
configuration produced them.
"""

import hashlib
import json
from collections.abc import Mapping
from dataclasses import asdict, dataclass

from .data import SyntheticConfig, require_integer, require_nonnegative, require_seed
from .errors import ConfigError

GROUPINGS = ("modalities", "data-types", "data-sources", "custom")
ENCODERS = ("mlp", "resnet")
# fields that do not change results and stay out of the config hash
UNHASHED_FIELDS = ("output_dir", "force")


def _check_custom_source(entry) -> dict:
    """Checks of a custom source entry that need no dataset; returns it
    as a dict."""
    if not isinstance(entry, Mapping):
        raise ConfigError(f"custom source entry {entry!r} is not an object")
    where = f"custom source {entry.get('name')!r}"
    unknown = set(entry) - {"name", "features", "encoder", "aux_weight", "embedding"}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    if not entry.get("embedding") and not isinstance(entry.get("name"), str):
        raise ConfigError(f"{where}: a feature source needs a string 'name'")
    features = entry.get("features", [])
    if not (isinstance(features, (list, tuple)) and all(isinstance(f, str) for f in features)):
        raise ConfigError(f"{where}: features must be a list of names, got {features!r}")
    if entry.get("encoder", "mlp") not in ENCODERS:
        raise ConfigError(f"{where}: encoder must be 'mlp' or 'resnet', got {entry['encoder']!r}")
    require_nonnegative(f"{where}: aux_weight", entry.get("aux_weight", 0.0))
    return dict(entry)


@dataclass(frozen=True)
class RunConfig:
    task: str = "experiment"
    dataset: str | None = None              # manifest path; exclusive with synthetic
    synthetic: SyntheticConfig | None = None
    fusion_grouping: str = "modalities"
    n_source_blocks: int = 4                # for the data-sources grouping
    custom_sources: tuple | None = None     # for the custom grouping
    encoder: str = "mlp"
    prototypes: int = 20
    encoder_output_dim: int = 32
    text_hidden_dim: int = 128
    aux_weight_structured: float = 2.0
    aux_weight_text: float = 1.0
    batch_size: int = 32
    max_epochs: int = 150
    patience: int = 10
    learning_rate: float = 1e-3
    seeds: tuple = (0, 1, 2, 3, 4)
    output_dir: str = "runs"
    force: bool = False

    def __post_init__(self):
        if self.fusion_grouping not in GROUPINGS:
            raise ConfigError(
                f"fusion_grouping must be one of {GROUPINGS}, got {self.fusion_grouping!r}"
            )
        if self.encoder not in ENCODERS:
            raise ConfigError(f"encoder must be 'mlp' or 'resnet', got {self.encoder!r}")
        if self.dataset is None and self.synthetic is None:
            raise ConfigError("config needs either a dataset manifest or a synthetic block")
        if self.dataset is not None and self.synthetic is not None:
            raise ConfigError("dataset and synthetic are mutually exclusive")
        if self.fusion_grouping == "custom" and not self.custom_sources:
            raise ConfigError("custom grouping requires custom_sources")
        for name in ("prototypes", "encoder_output_dim", "text_hidden_dim", "batch_size",
                     "max_epochs", "patience", "n_source_blocks"):
            require_integer(name, getattr(self, name))
        for seed in self.seeds:
            require_seed("each seed", seed)
        for name in ("learning_rate", "aux_weight_structured", "aux_weight_text"):
            require_nonnegative(name, getattr(self, name))
        for check, message in (
            (self.prototypes >= 1, "prototypes must be >= 1"),
            (self.encoder_output_dim >= 1, "encoder_output_dim must be >= 1"),
            (self.text_hidden_dim >= 1, "text_hidden_dim must be >= 1"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (self.max_epochs >= 1, "max_epochs must be >= 1"),
            (self.patience >= 0, "patience must be >= 0"),
            (self.n_source_blocks >= 2, "n_source_blocks must be >= 2"),
            (len(self.seeds) >= 1, "seeds must be non-empty"),
        ):
            if not check:
                raise ConfigError(message)
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if len(set(self.seeds)) != len(self.seeds):
            # each seed owns one seed_<s>/ directory and one summary entry
            raise ConfigError(f"seeds must be distinct, got {list(self.seeds)}")
        if self.custom_sources is not None:
            object.__setattr__(self, "custom_sources",
                               tuple(_check_custom_source(s) for s in self.custom_sources))

    def to_json_dict(self):
        """The hashed fields: every field but ``UNHASHED_FIELDS``."""
        doc = asdict(self)
        for name in UNHASHED_FIELDS:
            del doc[name]
        return doc

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
