"""Dataset ingestion, preprocessing, splitting, and synthetic generation.

On disk a dataset is a manifest JSON beside its data files.  In memory it
is one raw array per feature (NaN or None = missing) plus an embedding
matrix; all numeric encoding happens in ``fit_preprocess``/
``apply_preprocess``, whose statistics come from the training split only.

``write_dataset`` writes two copies of the data and a version-2 manifest:

* the readable copy: a structured CSV (header = feature names + ``label``
  + ``id``, empty cells = missing) and, with embeddings, a JSONL of one
  ``{"id", "embedding"}`` record per sample;
* the binary copy: one NumPy ``.npy`` file per array (labels ``int64``
  (N,), ids fixed-width unicode (N,), numerical columns ``float64``
  (N, Dn) with NaN for missing, categorical columns fixed-width unicode
  (N, Dc) with ``""`` for missing, embeddings ``float64`` (N, De)),
  whose names, sizes and sha256 the manifest records.  Since the manifest
  records those hashes, its own hash (a run's ``dataset_id``) covers the
  data.

For a version-2 manifest ``load_dataset`` and ``load_split`` read only
the binary files.  Each file's size, then sha256, then exact dtype and
shape (``n`` rows, the schema's widths) are checked, then its content as
whole arrays: labels in ``[0, m)``, unique ids, no infinite numerical
value, finite embeddings.  Each fault raises a DataError naming the file.

For a version-1 manifest (the CSV and JSONL alone) both loaders read
the text line by line and check every row; ``load_split`` then picks its
part, so both versions check every row in every load.  Each CSV line is
checked for its width, label and id and then its numerical cells, left
to right, as it is read.  Each JSONL record is checked for a bad record,
a repeated id, its vector's shape and type and then its finiteness, and
the vector goes straight into its row of one array.  So the first faulty
line raises, with its first fault; the faults of a whole file (a row
count other than the manifest's ``n``, an id without an embedding) come
after its pass.  One id -> row dict, built by the CSV pass, serves both
passes.  A load takes labels and embedding values only as
``write_dataset`` writes them: a label is ASCII digits, an embedding
value a JSON number.

``write_dataset`` formats the text files itself, in the bytes
``csv.writer`` and ``json.dumps`` would write, and writes them in blocks
of ``CSV_BLOCK_ROWS`` rows (JSONL: lines).

The synthetic generator draws class-conditional Gaussian features per
source, with a configurable rate of "conflicted" samples whose second
source is drawn from the wrong class.  Generation is a pure function of
its config, and the config is recorded in the manifest so tests can
recover the Bayes-optimal baseline in closed form.
"""

import csv
import hashlib
import io
import json
import logging
import math
import os
import sys
from array import array
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .rng import substream

logger = logging.getLogger(__name__)

MANIFEST_VERSION = 2
SPLIT_NAMES = ("train", "val", "test")
SPLIT_FRACTIONS = (0.6, 0.2, 0.2)
# class-mean separation per unit of source informativeness; at 1.0 the
# classes are essentially linearly separable
SEPARATION_SCALE = 6.0
# rows of the structured CSV (lines of the embeddings JSONL) formatted and
# written at a time, so that a write never holds the text of every row
CSV_BLOCK_ROWS = 2048
# the arrays of the binary copy, each in a file <key>.npy; "embeddings"
# only when the dataset has them
BINARY_KEYS = ("labels", "ids", "numerical", "categorical", "embeddings")


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str  # "numerical" | "categorical"

    def __post_init__(self):
        # a version-2 load checks no CSV header against the names
        if not isinstance(self.name, str):
            raise DataError(f"feature names must be str, got {self.name!r}")
        if self.kind not in ("numerical", "categorical"):
            raise DataError(f"feature {self.name!r}: unknown kind {self.kind!r}")


def _missing(column: np.ndarray) -> np.ndarray:
    """Missing cells: NaN in a numerical column, None in a categorical one."""
    return np.isnan(column) if column.dtype == np.float64 else np.equal(column, None)


@dataclass(eq=False)
class Dataset:
    """``columns[j]`` holds schema feature j for every sample: float64 with
    NaN for missing, or for a categorical an object array of non-empty str
    with None.  Ids are unique ``str``, no id or category holds NUL and
    embeddings are finite, so whatever validates here also survives
    ``write_dataset`` and ``load_dataset`` in either file format."""

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
        bad_ids = [i for i in self.ids if not isinstance(i, str)]
        if bad_ids:
            raise DataError(f"sample ids must be str, got {bad_ids[0]!r}")
        if len(set(self.ids)) != len(self.ids):
            raise DataError("sample ids must be unique")
        if "\x00" in "".join(self.ids):
            # the binary copy's fixed-width unicode drops a trailing NUL
            raise DataError("sample ids must not hold NUL characters")
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
            if f.kind == "categorical" and (c == "").any():
                # an empty CSV cell reads back as missing
                raise DataError(f"feature {f.name!r}: the empty string is not a category; "
                                "use None for missing")
            if f.kind == "categorical" and "\x00" in "".join(c[~np.equal(c, None)].tolist()):
                raise DataError(f"feature {f.name!r}: categorical values must not hold "
                                "NUL characters")
        if self.embeddings is not None:
            self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
            if self.embeddings.ndim != 2 or self.embeddings.shape[0] != self.n:
                raise DataError("embeddings must be one vector per sample")
            if not np.isfinite(self.embeddings).all():
                raise DataError("embeddings must be finite")

    @property
    def n(self):
        return len(self.ids)

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return replace(
            self, ids=np.asarray(self.ids, dtype=object)[indices].tolist(),
            columns=tuple(c[indices] for c in self.columns), labels=self.labels[indices],
            embeddings=self.embeddings[indices] if self.embeddings is not None else None)


def split_indices(n: int, seed: int):
    """Row indices of the train/val/test parts of ``n`` samples: a seeded
    uniform shuffle, then a 60/20/20 cut."""
    if n < 10:
        raise DataError(f"need at least 10 samples to split, got {n}")
    order = substream(seed, "split").permutation(n)
    cuts = [int(SPLIT_FRACTIONS[0] * n), int((SPLIT_FRACTIONS[0] + SPLIT_FRACTIONS[1]) * n)]
    return tuple(np.split(order, cuts))


def split(dataset: Dataset, seed: int):
    """The train/val/test datasets of ``split_indices``."""
    return tuple(dataset.subset(part) for part in split_indices(dataset.n, seed))


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

def require_integer(name: str, value):
    """A count or seed must be an int, and a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def require_nonnegative(name: str, value):
    """A learning rate or weight must be an int or float from 0 to the
    largest finite float, and a bool is not one."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 <= value <= sys.float_info.max):
        raise ConfigError(f"{name} must be a number >= 0, got {value!r}")


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
        for name in ("n", "d_struct", "d_embed", "m", "seed"):
            require_integer(name, getattr(self, name))
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
    return Dataset(
        schema=schema,
        ids=[f"s{i:06d}" for i in range(n)],
        columns=tuple(x_struct.T),
        labels=labels,
        embeddings=embeddings,
        m=config.m,
        generator=synthetic_generator(config),
    )


def synthetic_generator(config: SyntheticConfig) -> dict:
    """The ``generator`` record of ``generate_synthetic(config)``'s dataset."""
    return dict(asdict(config), separation_scale=SEPARATION_SCALE,
                informativeness=list(config.informativeness))


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

def _csv_cell(cell: str) -> str:
    """A str cell as ``csv.writer`` writes it in the default dialect
    (QUOTE_MINIMAL): quoted, with each quote doubled, when it holds a
    comma, a quote or a line break, and as it is otherwise."""
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_rows(dataset: Dataset, lo: int, hi: int) -> str:
    """Rows ``lo:hi`` of the structured CSV, as ``csv.writer`` writes them:
    floats as ``repr``, missing cells empty, lines ending in CRLF."""
    cells = []
    for column in dataset.columns:
        part = column[lo:hi]
        if part.dtype == np.float64:
            text = list(map(repr, part.tolist()))
            for i in np.flatnonzero(np.isnan(part)).tolist():
                text[i] = ""
        else:
            text = ["" if value is None else _csv_cell(value) for value in part.tolist()]
        cells.append(text)
    cells.append(list(map(str, dataset.labels[lo:hi].tolist())))
    cells.append(list(map(_csv_cell, dataset.ids[lo:hi])))
    return "".join(",".join(row) + "\r\n" for row in zip(*cells))


def _jsonl_lines(ids, embeddings) -> str:
    """One ``{"embedding", "id"}`` line per sample, the bytes of
    ``json.dumps(..., sort_keys=True, separators=(",", ":"))``, whose
    floats are ``repr`` (embeddings are finite)."""
    encode = json.encoder.encode_basestring_ascii
    return "".join('{"embedding":[' + ",".join(map(repr, vec)) + '],"id":' + encode(sample_id)
                   + "}\n" for sample_id, vec in zip(ids, embeddings.tolist()))


def _binary_arrays(dataset: Dataset) -> dict:
    """The arrays of the binary copy, by manifest key."""
    numerical = [c for f, c in zip(dataset.schema, dataset.columns) if f.kind == "numerical"]
    categorical = [np.where(np.equal(c, None), "", c)
                   for f, c in zip(dataset.schema, dataset.columns) if f.kind == "categorical"]
    arrays = {
        "labels": dataset.labels,
        "ids": np.array(dataset.ids, dtype=str),
        # transposed views: each column is contiguous in the file
        "numerical": np.array(numerical, dtype=np.float64).reshape(len(numerical), dataset.n).T,
        "categorical": np.array(categorical, dtype=str).reshape(len(categorical), dataset.n).T,
    }
    if dataset.embeddings is not None:
        arrays["embeddings"] = dataset.embeddings
    return arrays


def _write_npy(out_dir: str, key: str, array: np.ndarray) -> dict:
    """Write ``<key>.npy``; returns its manifest entry (file, size, sha256)."""
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    raw = buffer.getvalue()
    name = f"{key}.npy"
    with open(os.path.join(out_dir, name), "wb") as fh:
        fh.write(raw)
    return {"file": name, "size": len(raw), "sha256": hashlib.sha256(raw).hexdigest()}


def write_dataset(dataset: Dataset, out_dir: str) -> str:
    """Write structured CSV + embeddings JSONL, the binary ``.npy`` copy
    and a version-2 manifest; returns the manifest path.  Output bytes are
    a pure function of the dataset.

    Both text files are formatted and written ``CSV_BLOCK_ROWS`` rows at a
    time, in the bytes of ``csv.writer`` (default dialect) and of one
    ``json.dumps`` per line."""
    os.makedirs(out_dir, exist_ok=True)
    blocks = range(0, dataset.n, CSV_BLOCK_ROWS)
    structured_name = "structured.csv"
    with open(os.path.join(out_dir, structured_name), "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([f.name for f in dataset.schema] + ["label", "id"])
        for lo in blocks:
            fh.write(_csv_rows(dataset, lo, lo + CSV_BLOCK_ROWS))
    embeddings_name = None
    if dataset.embeddings is not None:
        embeddings_name = "embeddings.jsonl"
        with open(os.path.join(out_dir, embeddings_name), "w", encoding="utf-8") as fh:
            for lo in blocks:
                hi = lo + CSV_BLOCK_ROWS
                fh.write(_jsonl_lines(dataset.ids[lo:hi], dataset.embeddings[lo:hi]))
    manifest = {
        "format_version": MANIFEST_VERSION,
        "n": dataset.n,
        "m": dataset.m,
        "files": {"structured": structured_name, "embeddings": embeddings_name},
        "binary": {key: _write_npy(out_dir, key, array)
                   for key, array in _binary_arrays(dataset).items()},
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


def _open(path: str, what: str, **kwargs):
    try:
        return open(path, encoding="utf-8", **kwargs)
    except FileNotFoundError as exc:
        raise DataError(f"{what} not found: {path}") from exc


def _read_manifest(manifest_path: str):
    """(schema, n, m, structured CSV path, embeddings JSONL path or None,
    binary files or None, generator); the binary files, of a version-2
    manifest only, map each array's key to its (path, size, sha256).  A
    manifest that is missing, not JSON, of another version or lacks a
    field raises a DataError naming it."""
    try:
        with _open(manifest_path, "dataset manifest") as fh:
            manifest = json.load(fh)
    # a JSONDecodeError, an integer of too many digits, or JSON nested too
    # deeply for the parser
    except (ValueError, RecursionError) as exc:
        raise DataError(f"malformed manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"malformed manifest {manifest_path}: not a JSON object")
    version = manifest.get("format_version")
    if type(version) is not int or version not in (1, MANIFEST_VERSION):  # not True or 2.0
        raise DataError(f"unsupported manifest version {version!r} in {manifest_path}; "
                        f"supported versions: 1, {MANIFEST_VERSION}")
    base = os.path.dirname(manifest_path)
    try:
        schema = tuple(FeatureSpec(f["name"], f["kind"]) for f in manifest["schema"])
        files, n, m = manifest["files"], manifest["n"], manifest["m"]
        structured_path = os.path.join(base, files["structured"])
        embeddings_name = files.get("embeddings")
        embeddings_path = os.path.join(base, embeddings_name) if embeddings_name else None
        binary = None
        if version == MANIFEST_VERSION:
            entries = manifest["binary"]
            keys = BINARY_KEYS if "embeddings" in entries else BINARY_KEYS[:-1]
            binary = {key: (os.path.join(base, entries[key]["file"]), entries[key]["size"],
                            entries[key]["sha256"]) for key in keys}
    except (LookupError, AttributeError, TypeError) as exc:
        raise DataError(
            f"malformed manifest {manifest_path}: {type(exc).__name__}: {exc}") from exc
    # type(): a bool is not a count
    if type(m) is not int or m < 2:
        raise DataError(
            f"malformed manifest {manifest_path}: m must be an integer >= 2, got {m!r}")
    if type(n) is not int or n < 0:
        raise DataError(
            f"malformed manifest {manifest_path}: n must be an integer >= 0, got {n!r}")
    return (schema, n, m, structured_path, embeddings_path, binary,
            manifest.get("generator"))


# .npy format version -> (bytes of its header-length field, header reader)
_NPY_HEADERS = {(1, 0): (2, np.lib.format.read_array_header_1_0),
                (2, 0): (4, np.lib.format.read_array_header_2_0)}


def _npy_layout(buf: bytearray):
    """(shape, fortran_order, dtype, data offset) of the .npy bytes
    ``buf``; the header readers see a copy of the header alone."""
    start = np.lib.format.MAGIC_LEN
    length_bytes, read_header = _NPY_HEADERS[np.lib.format.read_magic(io.BytesIO(buf[:start]))]
    end = start + length_bytes
    fp = io.BytesIO(buf[:end + int.from_bytes(buf[start:end], "little")])
    fp.seek(start)
    shape, fortran_order, dtype = read_header(fp)
    return shape, fortran_order, dtype, fp.tell()


def _read_npy(path: str, size, sha256, manifest_path: str) -> np.ndarray:
    """The array of one binary file, once its size and then its sha256
    equal the manifest's; the array's data is checked to fill the file
    before the array is made.  The file is read once, into a writable
    buffer that the array then uses."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError as exc:
        raise DataError(f"binary data file not found: {path}") from exc
    with fh:
        actual = os.fstat(fh.fileno()).st_size
        if actual != size:
            raise DataError(f"{path} holds {actual} bytes, "
                            f"but manifest {manifest_path} records {size!r}")
        buf = bytearray(size)
        fh.readinto(buf)
    if hashlib.sha256(buf).hexdigest() != sha256:
        raise DataError(f"{path}: sha256 differs from the one manifest {manifest_path} records")
    try:
        shape, fortran_order, dtype, offset = _npy_layout(buf)
        count = math.prod(shape)
        if offset + count * dtype.itemsize != len(buf):
            raise ValueError(f"the data of shape {shape} does not fill the file")
        flat = np.frombuffer(buf, dtype, count, offset)  # object arrays raise
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}: not a .npy array file ({exc})") from None
    return flat.reshape(shape, order="F" if fortran_order else "C")


def _read_binary(manifest_path: str, schema, n: int, m: int, binary: dict):
    """(labels, ids, columns, embeddings or None) of a version-2 manifest,
    each file checked whole: dtype, shape, content."""
    numerical_names = [f.name for f in schema if f.kind == "numerical"]
    unicode = "fixed-width unicode"
    # dtype and the widths after the n rows; any embedding width De
    expected = {"labels": ("int64", ()), "ids": (unicode, ()),
                "numerical": ("float64", (len(numerical_names),)),
                "categorical": (unicode, (len(schema) - len(numerical_names),)),
                "embeddings": ("float64", ("De",))}
    arrays = {}
    for key, (path, size, sha256) in binary.items():
        array = _read_npy(path, size, sha256, manifest_path)
        dtype, widths = expected[key]
        if not (array.dtype.kind == "U" and array.dtype.isnative if dtype == unicode
                else array.dtype == np.dtype(dtype)):
            raise DataError(f"{path}: dtype {array.dtype.str}, need {dtype}")
        if array.ndim != 1 + len(widths) or any(
                w not in ("De", got) for w, got in zip(widths, array.shape[1:])):
            raise DataError(f"{path}: shape {array.shape}, "
                            f"need (n{''.join(f', {w}' for w in widths)})")
        if len(array) != n:
            raise DataError(f"{path} holds {len(array)} rows, "
                            f"but manifest {manifest_path} says n = {n}")
        arrays[key] = array, path
    (labels, labels_path), (ids, ids_path) = arrays["labels"], arrays["ids"]
    outside = np.flatnonzero((labels < 0) | (labels >= m))
    if outside.size:
        raise DataError(f"{labels_path}: row {outside[0]}: label {labels[outside[0]]} "
                        f"outside 0..{m - 1}")
    ids = ids.tolist()
    if len(set(ids)) != n:
        seen = set()
        duplicate = next(i for i in ids if i in seen or seen.add(i))
        raise DataError(f"{ids_path}: duplicate id {duplicate!r}")
    numerical, numerical_path = arrays["numerical"]
    rows, features = np.nonzero(np.isinf(numerical))
    if rows.size:
        raise DataError(f"{numerical_path}: row {rows[0]}: feature "
                        f"{numerical_names[features[0]]!r}: infinite value")
    embeddings, embeddings_path = arrays.get("embeddings", (None, None))
    if embeddings is not None and not np.isfinite(embeddings).all():
        row = np.flatnonzero(~np.isfinite(embeddings).all(axis=1))[0]
        raise DataError(f"{embeddings_path}: non-finite embedding value for id {ids[row]!r}")
    numerical = iter(numerical.T)
    categorical = arrays["categorical"][0]
    categorical = iter(np.where(categorical == "", None, categorical.astype(object)).T)
    columns = tuple(next(numerical if f.kind == "numerical" else categorical) for f in schema)
    return labels, ids, columns, embeddings


def _read_structured(path: str, schema, m: int):
    """(row_of, labels, columns) of the structured CSV, read line by line;
    ``row_of`` maps each id to its row, in row order.  Each line's width,
    label and id and then its numerical cells, left to right, are checked
    as it is read, so the first faulty line raises, with its first fault."""
    expected = [f.name for f in schema] + ["label", "id"]
    label_digits = len(str(m))
    row_of, labels = {}, []
    parts = [array("d") if f.kind == "numerical" else [] for f in schema]
    numerical = [(j, f.name, parts[j]) for j, f in enumerate(schema) if f.kind == "numerical"]
    categorical = [(j, parts[j]) for j, f in enumerate(schema) if f.kind == "categorical"]
    with _open(path, "structured data file", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise DataError(f"CSV header {header!r} does not match schema {expected!r}")
        for line_no, row in enumerate(reader, 2):
            if len(row) != len(expected):
                raise DataError(f"{path}:{line_no}: wrong column count")
            # int() also takes " 1", "+1" and "0_1"
            if not (row[-2].isascii() and row[-2].isdigit()):
                raise DataError(f"{path}:{line_no}: bad label {row[-2]!r}")
            # more digits than m has is out of range, and int() refuses more
            # than 4300
            if (len(digits := row[-2].lstrip("0") or "0") > label_digits
                    or (label := int(digits)) >= m):
                raise DataError(f"{path}:{line_no}: label {digits} outside 0..{m - 1}")
            if row[-1] in row_of:
                raise DataError(f"{path}:{line_no}: duplicate id {row[-1]!r}")
            row_of[row[-1]] = line_no - 2
            labels.append(label)
            for j, name, values in numerical:
                cell = row[j]
                try:
                    value = float(cell) if cell else math.nan
                    if cell and not math.isfinite(value):
                        raise ValueError
                except ValueError:
                    raise DataError(f"{path}:{line_no}: feature {name!r}: "
                                    f"not a finite number {cell!r}") from None
                values.append(value)
            for j, values in categorical:
                values.append(row[j] or None)
    return row_of, np.array(labels, dtype=np.int64), tuple(
        np.array(p, dtype=np.float64 if f.kind == "numerical" else object)
        for p, f in zip(parts, schema))


def _load_embeddings(path: str, row_of: dict) -> np.ndarray:
    """The (len(row_of), d) embeddings, row ``row_of[id]`` for each CSV id
    (``row_of`` lists them in row order), read line by line; d is the size
    of the first CSV id's vector.  Blank lines are skipped but counted.
    Each line raises as it is read, for the first of: a bad record, a
    repeated id, a CSV id's vector that is not a flat list of d numbers, a
    non-finite or null value.  After the pass, so do the first CSV id
    without a record and a CSV without rows, which gives no width."""
    seen = bytearray(len(row_of))  # 1 where a CSV id's record has been read
    others = set()              # ids of records the CSV lacks
    embeddings = None
    with _open(path, "embeddings file") as fh:
        for line_no, line in enumerate(fh, 1):
            if line.isspace():
                continue
            try:
                record = json.loads(line)
                sample_id, vector = record["id"], record["embedding"]
                row = row_of.get(sample_id)
            # ValueError: also an integer of more than 4300 digits;
            # RecursionError: JSON nested too deeply for the parser
            except (ValueError, RecursionError, KeyError, TypeError):
                raise DataError(f"{path}:{line_no}: bad record") from None
            if (sample_id in others) if row is None else seen[row]:
                raise DataError(f"{path}:{line_no}: duplicate id {sample_id!r}")
            if row is None:
                others.add(sample_id)
                continue
            seen[row] = 1
            try:
                values = np.array(vector, dtype=np.float64)
                d = values.size if embeddings is None else embeddings.shape[1]
                if values.shape != (d,):
                    raise ValueError(f"read as shape {values.shape}, not ({d},)")
                # numpy also converts true, false and numeric strings
                if not set(map(type, vector)) <= {int, float, type(None)}:
                    raise ValueError("a value that is not a number")
            except (ValueError, TypeError, OverflowError) as exc:
                raise DataError(f"{path}:{line_no}: need one equal-length number list "
                                f"per sample ({exc})") from None
            if not np.isfinite(values).all():
                raise DataError(f"{path}: non-finite or null embedding value for id "
                                f"{sample_id!r}")
            if embeddings is None:
                embeddings = np.empty((len(row_of), d))
            embeddings[row] = values
    missing = seen.find(0)
    if missing >= 0:
        raise DataError(f"{path}: no embedding for id {list(row_of)[missing]!r}")
    if embeddings is None:
        raise DataError(f"{path}: need one equal-length number list per sample (no rows)")
    return embeddings


def _load(manifest_path: str, pick) -> Dataset:
    """Every row of a manifest's dataset, checked, then the rows ``pick(n)``
    picks when ``pick`` is given."""
    (schema, n, m, structured_path, embeddings_path, binary,
     generator) = _read_manifest(manifest_path)
    if binary is not None:
        labels, ids, columns, embeddings = _read_binary(manifest_path, schema, n, m, binary)
    else:
        row_of, labels, columns = _read_structured(structured_path, schema, m)
        if len(row_of) != n:
            raise DataError(f"{structured_path} holds {len(row_of)} rows, "
                            f"but manifest {manifest_path} says n = {n}")
        embeddings = _load_embeddings(embeddings_path, row_of) if embeddings_path else None
        ids = list(row_of)
    if pick is not None:
        rows = pick(n)
        ids, labels = [ids[i] for i in rows], labels[rows]
        columns = tuple(c[rows] for c in columns)
        embeddings = embeddings[rows] if embeddings is not None else None
    return Dataset(schema=schema, ids=ids, labels=labels, columns=columns,
                   embeddings=embeddings, m=m, generator=generator)


def load_dataset(manifest_path: str) -> Dataset:
    """Every row of a manifest's dataset, every array (version 2) or every
    cell (version 1) checked."""
    return _load(manifest_path, None)


def load_split(manifest_path: str, seed: int, part: str) -> Dataset:
    """One part ("train", "val" or "test") of a manifest's dataset, equal
    to ``split(load_dataset(manifest_path), seed)`` at that part.

    Either version is read and checked whole, as ``load_dataset`` reads
    it, so a fault anywhere in the files raises what ``load_dataset``
    raises; then the part's rows are picked.
    """
    if part not in SPLIT_NAMES:
        raise ConfigError(f"split must be one of train/val/test, got {part!r}")
    return _load(manifest_path, lambda n: split_indices(n, seed)[SPLIT_NAMES.index(part)])
