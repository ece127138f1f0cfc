"""Run configuration: validation, key=value config files, and hashing.

A config file is flat ``key = value`` lines (# comments allowed);
nested synthetic-generator fields use a ``synthetic.`` prefix.  Command
line flags override file values.  The config hash covers every field
that affects results, so artifacts can assert exactly which
configuration produced them.
"""

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields

from .data import SyntheticConfig
from .errors import ConfigError

GROUPINGS = ("modalities", "data-types", "data-sources", "custom")
ENCODERS = ("mlp", "resnet")
OUTPUT_ROOT_ENV = "EVIDFUSE_OUTPUT_ROOT"
# fields that do not change results and stay out of the config hash
UNHASHED_FIELDS = ("output_dir", "force")


def _check_custom_source(entry: dict):
    """Checks of a custom source entry that need no dataset."""
    where = f"custom source {entry.get('name')!r}"
    unknown = set(entry) - {"name", "features", "encoder", "aux_weight", "embedding"}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    if entry.get("encoder", "mlp") not in ENCODERS:
        raise ConfigError(f"{where}: encoder must be 'mlp' or 'resnet', got {entry['encoder']!r}")
    weight = entry.get("aux_weight", 0.0)
    if isinstance(weight, bool) or not isinstance(weight, (int, float)) or not weight >= 0:
        raise ConfigError(f"{where}: aux_weight must be a number >= 0, got {weight!r}")


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
    output_dir: str = field(default_factory=lambda: os.environ.get(OUTPUT_ROOT_ENV, "runs"))
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
        for check, message in (
            (self.prototypes >= 1, "prototypes must be >= 1"),
            (self.encoder_output_dim >= 1, "encoder_output_dim must be >= 1"),
            (self.text_hidden_dim >= 1, "text_hidden_dim must be >= 1"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (self.max_epochs >= 1, "max_epochs must be >= 1"),
            (self.patience >= 0, "patience must be >= 0"),
            (self.learning_rate >= 0, "learning_rate must be >= 0"),
            (self.aux_weight_structured >= 0, "aux_weight_structured must be >= 0"),
            (self.aux_weight_text >= 0, "aux_weight_text must be >= 0"),
            (self.n_source_blocks >= 2, "n_source_blocks must be >= 2"),
            (len(self.seeds) >= 1, "seeds must be non-empty"),
        ):
            if not check:
                raise ConfigError(message)
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.custom_sources is not None:
            object.__setattr__(self, "custom_sources",
                               tuple(dict(s) for s in self.custom_sources))
            for entry in self.custom_sources:
                _check_custom_source(entry)

    def to_json_dict(self, include_unhashed=True):
        doc = asdict(self)
        if not include_unhashed:
            for name in UNHASHED_FIELDS:
                del doc[name]
        return doc

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_json_dict(include_unhashed=False),
                               sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


_RUN_FIELDS = {f.name: f for f in fields(RunConfig)}
_SYNTH_FIELDS = {f.name: f for f in fields(SyntheticConfig)}


def _parse_value(name, raw, target_field):
    raw = raw.strip()
    kind = target_field.type
    try:
        if name == "custom_sources":
            parsed = json.loads(raw)
            if not isinstance(parsed, list):
                raise ConfigError(f"{name} must be a JSON array")
            return tuple(parsed)
        if name in ("seeds", "informativeness"):
            return tuple(
                (int if name == "seeds" else float)(part)
                for part in raw.split(",") if part.strip() != ""
            )
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except (ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad value for {name!r}: {raw!r}") from exc


def parse_config_text(text: str, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from key=value text plus override pairs.

    Unknown keys are rejected.  ``synthetic.*`` keys populate the
    synthetic generator block.
    """
    run_kwargs: dict = {}
    synth_kwargs: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {line_no}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        _assign(key.strip(), raw, run_kwargs, synth_kwargs)
    for key, raw in (overrides or {}).items():
        _assign(key.strip(), raw, run_kwargs, synth_kwargs)
    if synth_kwargs:
        if "n" not in synth_kwargs:
            raise ConfigError("synthetic block needs at least synthetic.n")
        run_kwargs["synthetic"] = SyntheticConfig(**synth_kwargs)
    return RunConfig(**run_kwargs)


def _assign(key, raw, run_kwargs, synth_kwargs):
    if key.startswith("synthetic."):
        name = key[len("synthetic."):]
        if name not in _SYNTH_FIELDS:
            raise ConfigError(f"unknown synthetic config key {name!r}")
        synth_kwargs[name] = _parse_value(name, str(raw), _SYNTH_FIELDS[name])
    else:
        if key not in _RUN_FIELDS or key == "synthetic":
            raise ConfigError(f"unknown config key {key!r}")
        run_kwargs[key] = _parse_value(key, str(raw), _RUN_FIELDS[key])


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    text = ""
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
    return parse_config_text(text, overrides)
