"""Dataset ingestion, preprocessing, splitting, and synthetic generation.

On disk a dataset is a manifest JSON pointing at a structured CSV
(header = feature names + ``label`` + ``id``, empty cells = missing)
and optionally an embeddings JSONL (one ``{"id", "embedding"}`` record
per sample).  In memory it is one raw array per feature (NaN or None =
missing) plus an embedding matrix; all numeric encoding happens in
``fit_preprocess``/``apply_preprocess``, whose statistics come from the
training split only.

The synthetic generator draws class-conditional Gaussian features per
source, with a configurable rate of "conflicted" samples whose second
source is drawn from the wrong class.  Generation is a pure function of
its config, and the config is recorded in the manifest so tests can
recover the Bayes-optimal baseline in closed form.
"""

import csv
import hashlib
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .rng import substream

logger = logging.getLogger(__name__)

MANIFEST_VERSION = 1
SPLIT_FRACTIONS = (0.6, 0.2, 0.2)
# class-mean separation per unit of source informativeness; at 1.0 the
# classes are essentially linearly separable
SEPARATION_SCALE = 6.0


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str  # "numerical" | "categorical"

    def __post_init__(self):
        if self.kind not in ("numerical", "categorical"):
            raise DataError(f"feature {self.name!r}: unknown kind {self.kind!r}")


def _missing(column: np.ndarray) -> np.ndarray:
    """Missing cells: NaN in a numerical column, None in a categorical one."""
    return np.isnan(column) if column.dtype == np.float64 else np.equal(column, None)


@dataclass(eq=False)
class Dataset:
    """``columns[j]`` holds schema feature j for every sample: float64 with
    NaN for missing, or for a categorical an object array of str with None."""

    schema: tuple
    ids: list
    columns: tuple
    labels: np.ndarray
    embeddings: np.ndarray | None = None
    m: int = 2
    generator: dict | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        names = [f.name for f in self.schema]
        if len(set(names)) != len(names):
            raise DataError(f"duplicate feature names in schema: {names}")
        if len(set(self.ids)) != len(self.ids):
            raise DataError("sample ids must be unique")
        columns = tuple(np.asarray(c, dtype=np.float64 if f.kind == "numerical" else object)
                        for f, c in zip(self.schema, self.columns))
        if (len(self.columns) != len(self.schema) or len(self.labels) != self.n
                or any(c.shape != (self.n,) for c in columns)):
            raise DataError("need one column per schema feature, each as long as ids and labels")
        self.columns = columns
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.m):
            raise DataError(f"labels must lie in 0..{self.m - 1}")
        for f, c in zip(self.schema, self.columns):
            if f.kind == "numerical" and np.isinf(c).any():
                raise DataError(f"feature {f.name!r}: infinite values")
            if f.kind == "categorical" and not set(map(type, c)) <= {str, type(None)}:
                raise DataError(f"feature {f.name!r}: categorical values must be str or None")
        if self.embeddings is not None:
            self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
            if self.embeddings.ndim != 2 or self.embeddings.shape[0] != self.n:
                raise DataError("embeddings must be one vector per sample")

    @property
    def n(self):
        return len(self.ids)

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return replace(
            self, ids=np.asarray(self.ids, dtype=object)[indices].tolist(),
            columns=tuple(c[indices] for c in self.columns), labels=self.labels[indices],
            embeddings=self.embeddings[indices] if self.embeddings is not None else None)


def split(dataset: Dataset, seed: int):
    """Seeded uniform shuffle, then a 60/20/20 train/val/test cut."""
    if dataset.n < 10:
        raise DataError(f"need at least 10 samples to split, got {dataset.n}")
    order = substream(seed, "split").permutation(dataset.n)
    cuts = [int(SPLIT_FRACTIONS[0] * dataset.n),
            int((SPLIT_FRACTIONS[0] + SPLIT_FRACTIONS[1]) * dataset.n)]
    return tuple(dataset.subset(part) for part in np.split(order, cuts))


# ---------------------------------------------------------------------------
# preprocessing

@dataclass(frozen=True)
class PreprocessState:
    """Train-split statistics: z-scoring for numericals, mode + one-hot
    category lists for categoricals.  Constant numericals are dropped."""

    numerical: dict       # name -> (mean, std)
    categorical: dict     # name -> (mode, tuple of categories)
    dropped: tuple
    layout: tuple         # (feature_name, start_column, width) in output order

    @property
    def width(self):
        return sum(w for _, _, w in self.layout)

    def columns_for(self, feature_names) -> np.ndarray:
        """Output-column indices covering the given schema features."""
        wanted = set(feature_names)
        cols = [
            np.arange(start, start + width)
            for name, start, width in self.layout
            if name in wanted
        ]
        if not cols:
            raise DataError(f"none of {sorted(wanted)} map to preprocessed columns")
        return np.concatenate(cols)

    def to_json_dict(self):
        return asdict(self)

    @staticmethod
    def from_json_dict(d):
        return PreprocessState(
            numerical={k: (v[0], v[1]) for k, v in d["numerical"].items()},
            categorical={k: (v[0], tuple(v[1])) for k, v in d["categorical"].items()},
            dropped=tuple(d["dropped"]),
            layout=tuple((n, s, w) for n, s, w in d["layout"]),
        )


def fit_preprocess(train: Dataset) -> PreprocessState:
    """Fit imputation/scaling/encoding statistics on the training split."""
    numerical, categorical, dropped, layout = {}, {}, [], []
    col = 0
    for feat, column in zip(train.schema, train.columns):
        observed = column[~_missing(column)]
        if not observed.size:
            raise DataError(f"feature {feat.name!r} has no observed values in the training split")
        if feat.kind == "numerical":
            mean, std = float(observed.mean()), float(observed.std())
            if std == 0.0:
                logger.warning("dropping constant numerical feature %r", feat.name)
                dropped.append(feat.name)
                continue
            numerical[feat.name] = (mean, std)
            width = 1
        else:
            # sorted categories; argmax takes the first (smallest) mode on ties
            values, counts = np.unique(observed, return_counts=True)
            categories = tuple(values.tolist())
            categorical[feat.name] = (categories[int(np.argmax(counts))], categories)
            width = len(categories)
        layout.append((feat.name, col, width))
        col += width
    return PreprocessState(numerical, categorical, tuple(dropped), tuple(layout))


def apply_preprocess(state: PreprocessState, dataset: Dataset) -> np.ndarray:
    """Numeric matrix for any split using the fitted training statistics.

    Unseen categories encode as all-zero one-hot blocks (logged, not
    fatal), so inference never fails on novel category values.
    """
    out = np.zeros((dataset.n, state.width))
    columns = {f.name: c for f, c in zip(dataset.schema, dataset.columns)}
    unseen = []
    for name, start, width in state.layout:
        if name not in columns:
            raise DataError(f"dataset lacks feature {name!r} required by the preprocess state")
        column = columns[name]
        if name in state.numerical:
            mean, std = state.numerical[name]
            out[:, start] = (np.where(np.isnan(column), mean, column) - mean) / std
        else:
            mode, categories = state.categorical[name]
            values = np.where(np.equal(column, None), mode, column)
            onehot = values[:, None] == np.array(categories, dtype=object)
            out[:, start:start + width] = onehot
            novel, counts = np.unique(values[~onehot.any(axis=1)], return_counts=True)
            unseen += [(name, v, c) for v, c in zip(novel.tolist(), counts.tolist())]
    for name, value, count in sorted(unseen):
        logger.warning("feature %r: unseen category %r in %d rows encoded as zeros",
                       name, value, count)
    return out


# ---------------------------------------------------------------------------
# class weights

def class_weights_from_counts(counts, total=None) -> np.ndarray:
    """Inverse-frequency weights w_c = N / (M * N_c)."""
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts <= 0):
        raise DataError(f"every class must be present, got counts {counts.tolist()}")
    n = float(counts.sum()) if total is None else float(total)
    return n / (len(counts) * counts)


def class_weights(labels, m: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    return class_weights_from_counts(np.bincount(labels, minlength=m))


# ---------------------------------------------------------------------------
# synthetic generation

@dataclass(frozen=True)
class SyntheticConfig:
    n: int
    d_struct: int = 16
    d_embed: int = 8
    m: int = 2
    positive_rate: float = 0.5
    informativeness: tuple = (0.5, 0.5)   # per source: (structured, embedding)
    conflict_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "informativeness", tuple(float(x) for x in self.informativeness))
        if self.m != 2:
            raise ConfigError("synthetic generation targets binary tasks (m = 2)")
        if self.n < 1 or self.d_struct < 1:
            raise ConfigError("n and d_struct must be >= 1")
        if self.d_embed < 0:
            raise ConfigError("d_embed must be >= 0 (0 disables the embedding source)")
        if not 0.0 < self.positive_rate < 1.0:
            raise ConfigError(f"positive_rate must be in (0, 1), got {self.positive_rate}")
        if not 0.0 <= self.conflict_rate <= 1.0:
            raise ConfigError(f"conflict_rate must be in [0, 1], got {self.conflict_rate}")
        expected = 2 if self.d_embed > 0 else 1
        if len(self.informativeness) != expected:
            raise ConfigError(
                f"informativeness needs {expected} entries for this configuration"
            )
        if any(not 0.0 <= x <= 1.0 for x in self.informativeness):
            raise ConfigError("informativeness entries must be in [0, 1]")
        if self.conflict_rate > 0.0 and self.d_embed == 0:
            raise ConfigError("conflict_rate needs a second (embedding) source")


def _class_direction(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Class-conditional Gaussian features for one or two sources.

    Source k separates the class means by SEPARATION_SCALE *
    informativeness[k] along a seeded random direction, with unit
    isotropic noise.  With probability conflict_rate a sample's second
    source is drawn from the wrong class's distribution.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n
    labels = (rng.random(n) < config.positive_rate).astype(np.int64)
    signs = (labels * 2 - 1).astype(np.float64)

    delta_struct = SEPARATION_SCALE * config.informativeness[0]
    u_struct = _class_direction(rng, config.d_struct)
    x_struct = rng.normal(size=(n, config.d_struct)) + np.outer(
        signs * delta_struct / 2.0, u_struct
    )

    embeddings = None
    if config.d_embed > 0:
        delta_embed = SEPARATION_SCALE * config.informativeness[1]
        u_embed = _class_direction(rng, config.d_embed)
        conflicted = rng.random(n) < config.conflict_rate
        embed_signs = np.where(conflicted, -signs, signs)
        embeddings = rng.normal(size=(n, config.d_embed)) + np.outer(
            embed_signs * delta_embed / 2.0, u_embed
        )

    schema = tuple(FeatureSpec(f"x{j:03d}", "numerical") for j in range(config.d_struct))
    generator = dict(asdict(config))
    generator["separation_scale"] = SEPARATION_SCALE
    generator["informativeness"] = list(config.informativeness)
    return Dataset(
        schema=schema,
        ids=[f"s{i:06d}" for i in range(n)],
        columns=tuple(x_struct.T),
        labels=labels,
        embeddings=embeddings,
        m=config.m,
        generator=generator,
    )


def _phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bayes_optimal_auroc(generator: dict, sources=None) -> float:
    """Best achievable AUROC on a conflict-free synthetic dataset.

    ``sources`` selects which generator sources contribute (default
    all); independent unit-variance Gaussian sources compose by summing
    squared separations.
    """
    scale = generator.get("separation_scale", SEPARATION_SCALE)
    informativeness = generator["informativeness"]
    if sources is None:
        sources = range(len(informativeness))
    total = sum((scale * informativeness[k]) ** 2 for k in sources)
    return _phi(math.sqrt(total) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# file formats

def write_dataset(dataset: Dataset, out_dir: str) -> str:
    """Write structured CSV + embeddings JSONL + manifest; returns the
    manifest path.  Output bytes are a pure function of the dataset."""
    os.makedirs(out_dir, exist_ok=True)
    structured_name = "structured.csv"
    with open(os.path.join(out_dir, structured_name), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in dataset.schema] + ["label", "id"])
        # astype(object) yields Python floats, which csv writes as repr()
        cells = [np.where(_missing(c), "", c.astype(object)) for c in dataset.columns]
        writer.writerows(zip(*cells, dataset.labels.tolist(), dataset.ids))
    embeddings_name = None
    if dataset.embeddings is not None:
        embeddings_name = "embeddings.jsonl"
        with open(os.path.join(out_dir, embeddings_name), "w", encoding="utf-8") as fh:
            for sample_id, vec in zip(dataset.ids, dataset.embeddings):
                fh.write(json.dumps(
                    {"id": sample_id, "embedding": vec.tolist()},
                    sort_keys=True, separators=(",", ":"),
                ))
                fh.write("\n")
    manifest = {
        "format_version": MANIFEST_VERSION,
        "n": dataset.n,
        "m": dataset.m,
        "files": {"structured": structured_name, "embeddings": embeddings_name},
        "schema": [{"name": f.name, "kind": f.kind} for f in dataset.schema],
        "generator": dataset.generator,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_json(manifest_path, manifest)
    return manifest_path


def write_json(path, doc):
    """Manifests and run artifacts: sorted keys, indent 1, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def manifest_hash(manifest_path: str) -> str:
    with open(manifest_path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _bad_cell(path: str, what: str, cells, parse) -> DataError:
    """The error naming the first CSV cell that ``parse`` rejects or reads as
    non-finite; a column is re-scanned this way only after it failed to load."""
    for line_no, cell in enumerate(cells, start=2):
        try:
            if math.isfinite(parse(cell)):
                continue
        except ValueError:
            pass
        return DataError(f"{path}:{line_no}: {what} {cell!r}")


def _parse_column(cells, feat: FeatureSpec, path: str) -> np.ndarray:
    if feat.kind == "categorical":
        return np.array([cell or None for cell in cells], dtype=object)
    try:
        column = np.array([float(cell) if cell else math.nan for cell in cells])
        # only an empty cell may stand for missing; a literal nan or inf is an error
        if not any(cells[i] for i in np.flatnonzero(~np.isfinite(column))):
            return column
    except ValueError:
        pass
    raise _bad_cell(path, f"feature {feat.name!r}: not a finite number", cells,
                    lambda cell: float(cell or 0))


def _load_embeddings(path: str, ids) -> np.ndarray:
    vectors = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if record["id"] in vectors:
                    raise DataError(f"{path}:{line_no}: duplicate id {record['id']!r}")
                vectors[record["id"]] = record["embedding"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise DataError(f"{path}:{line_no}: bad record") from exc
    try:
        embeddings = np.array([vectors[i] for i in ids], dtype=np.float64)
        if embeddings.ndim != 2:  # scalar or nested embeddings, or no rows
            raise ValueError(f"read as a {embeddings.ndim}-D array")
    except KeyError as exc:
        raise DataError(f"{path}: no embedding for id {exc.args[0]!r}") from exc
    except (ValueError, TypeError) as exc:
        raise DataError(f"{path}: need one equal-length number list per sample ({exc})") from exc
    bad = np.flatnonzero(~np.isfinite(embeddings).all(axis=1))
    if bad.size:
        raise DataError(f"{path}: non-finite or null embedding value for id {ids[bad[0]]!r}")
    return embeddings


def load_dataset(manifest_path: str) -> Dataset:
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError as exc:
        raise DataError(f"dataset manifest not found: {manifest_path}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed manifest {manifest_path}: {exc}") from exc
    if manifest.get("format_version") != MANIFEST_VERSION:
        raise DataError(f"unsupported manifest version {manifest.get('format_version')!r}")
    base = os.path.dirname(manifest_path)
    schema = tuple(FeatureSpec(f["name"], f["kind"]) for f in manifest["schema"])

    structured_path = os.path.join(base, manifest["files"]["structured"])
    with open(structured_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = [f.name for f in schema] + ["label", "id"]
        if header != expected:
            raise DataError(f"CSV header {header!r} does not match schema {expected!r}")
        records = list(reader)
    bad = np.flatnonzero(np.fromiter(map(len, records), np.int64, len(records)) != len(expected))
    if bad.size:
        raise DataError(f"{structured_path}:{bad[0] + 2}: wrong column count")
    cells = list(zip(*records)) or [()] * len(expected)
    try:
        labels = np.array([int(cell) for cell in cells[-2]], dtype=np.int64)
    except ValueError:
        raise _bad_cell(structured_path, "bad label", cells[-2], int) from None
    ids = list(cells[-1])
    columns = tuple(_parse_column(c, f, structured_path) for c, f in zip(cells, schema))
    del records, cells  # the CSV text is not needed while the embeddings load
    embeddings_name = manifest["files"].get("embeddings")
    return Dataset(
        schema=schema, ids=ids, labels=labels, columns=columns,
        embeddings=(_load_embeddings(os.path.join(base, embeddings_name), ids)
                    if embeddings_name else None),
        m=manifest["m"], generator=manifest.get("generator"))
