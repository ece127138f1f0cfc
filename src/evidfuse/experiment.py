"""End-to-end experiment driver: grouping resolution, per-seed runs,
multi-seed aggregation, and checkpoint re-evaluation.

A run directory contains ``config.json`` (resolved config + hash), one
``seed_<s>/`` directory per seed with ``checkpoint.json``,
``history.json``, and ``report.json``, and a ``summary.json`` with the
mean and standard error of every metric across seeds.  Nothing
time-dependent is written, so identical configs reproduce identical
bytes.
"""

import json
import os
from dataclasses import asdict

import numpy as np

from .config import RunConfig
from .data import (
    Dataset,
    apply_preprocess,
    fit_preprocess,
    generate_synthetic,
    load_dataset,
    manifest_hash,
    split,
    PreprocessState,
    SyntheticConfig,
    write_json,
)
from .errors import ConfigError, DataError
from .metrics import evaluate, summarize, MetricsReport
from .model import (
    Frame,
    SourceSpec,
    TrainConfig,
    init_model,
    load_checkpoint,
    predict_probs,
    save_checkpoint,
    train,
)

BINARY_FRAME = Frame(("negative", "positive"))


def _structured_feature_names(dataset: Dataset, state: PreprocessState):
    dropped = set(state.dropped)
    return [f.name for f in dataset.schema if f.name not in dropped]


def resolve_source_specs(config: RunConfig, dataset: Dataset,
                         state: PreprocessState) -> list:
    """Translate the fusion grouping into concrete source specs."""
    names = _structured_feature_names(dataset, state)
    has_text = dataset.embeddings is not None
    alpha, beta = config.aux_weight_structured, config.aux_weight_text
    specs = []

    if config.fusion_grouping == "modalities":
        specs.append(SourceSpec("structured", config.encoder, alpha, tuple(names)))
    elif config.fusion_grouping == "data-types":
        numerical = [n for n in names if n in state.numerical]
        categorical = [n for n in names if n in state.categorical]
        if not numerical or not categorical:
            raise ConfigError(
                "data-types grouping requires both numerical and categorical features"
            )
        specs.append(SourceSpec("numerical", config.encoder, alpha, tuple(numerical)))
        specs.append(SourceSpec("categorical", config.encoder, alpha, tuple(categorical)))
    elif config.fusion_grouping == "data-sources":
        if config.n_source_blocks > len(names):
            raise ConfigError(
                f"cannot split {len(names)} features into {config.n_source_blocks} blocks"
            )
        for i, block in enumerate(np.array_split(np.asarray(names, dtype=object),
                                                 config.n_source_blocks)):
            specs.append(SourceSpec(f"block{i}", config.encoder, alpha,
                                    tuple(str(n) for n in block)))
    else:  # custom
        for entry in config.custom_sources:
            if entry.get("embedding"):
                continue  # handled below with the text defaults
            unknown = set(entry.get("features", ())) - set(names)
            if unknown:
                raise ConfigError(f"custom source {entry.get('name')!r}: unknown features {sorted(unknown)}")
            if not entry.get("features"):
                raise ConfigError(f"custom source {entry.get('name')!r} lists no features")
            specs.append(SourceSpec(
                entry["name"],
                entry.get("encoder", config.encoder),
                float(entry.get("aux_weight", alpha)),
                tuple(entry["features"]),
            ))

    if has_text:
        specs.append(SourceSpec("notes", "text-head", beta, None))
    if not specs:
        raise ConfigError("the fusion grouping produced no evidence sources")
    return specs


def assemble_inputs(specs, state: PreprocessState, matrix: np.ndarray,
                    dataset: Dataset) -> list:
    """Per-source input matrices in spec order."""
    inputs = []
    for spec in specs:
        if spec.feature_names is None:
            if dataset.embeddings is None:
                raise DataError(f"source {spec.name!r} needs embeddings the dataset lacks")
            inputs.append(dataset.embeddings)
        else:
            inputs.append(matrix[:, state.columns_for(spec.feature_names)])
    return inputs


def split_inputs(specs, state: PreprocessState, part: Dataset) -> list:
    """One split's per-source inputs, with the training split's statistics."""
    return assemble_inputs(specs, state, apply_preprocess(state, part), part)


def score_split(model, inputs, labels) -> MetricsReport:
    """Metrics of the model's positive-class probabilities on one split."""
    return evaluate(predict_probs(model, inputs)[:, 1], labels)


def encoder_overrides(config: RunConfig, specs) -> dict:
    out = {spec.name: {"output_dim": config.encoder_output_dim} for spec in specs}
    for spec in specs:
        if spec.encoder_kind == "text-head":
            out[spec.name]["hidden_dim"] = config.text_hidden_dim
    return out


def load_run_dataset(config: RunConfig):
    """Returns (dataset, dataset identity string for reports).

    Evaluation is binary-only, so other datasets are rejected here,
    before any seed trains.
    """
    if config.synthetic is not None:
        dataset = generate_synthetic(config.synthetic)
        dataset_id = f"synthetic:{config.synthetic.seed}"
    else:
        dataset = load_dataset(config.dataset)
        dataset_id = manifest_hash(config.dataset)
    if dataset.m != 2:
        raise DataError(f"runs need a binary dataset, got {dataset.m} classes")
    return dataset, dataset_id


def _report_doc(task: str, config_hash: str, seed: int, dataset_id: str, split_name: str,
                report: MetricsReport) -> dict:
    return {
        "task": task,
        "seed": seed,
        "config_hash": config_hash,
        "dataset": dataset_id,
        "split": split_name,
        "metrics": asdict(report),
    }


def run_single_seed(config: RunConfig, dataset: Dataset, dataset_id: str,
                    seed: int, out_dir: str) -> MetricsReport:
    """Train once and write checkpoint/history/report into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    train_set, val_set, test_set = split(dataset, seed)
    state = fit_preprocess(train_set)
    specs = resolve_source_specs(config, dataset, state)

    inputs = {name: split_inputs(specs, state, part)
              for name, part in (("train", train_set), ("val", val_set), ("test", test_set))}

    model = init_model(BINARY_FRAME, specs, inputs["train"], train_set.labels, seed=seed,
                       prototypes=config.prototypes,
                       encoder_overrides=encoder_overrides(config, specs))
    result = train(
        model, inputs["train"], train_set.labels, inputs["val"], val_set.labels,
        TrainConfig(batch_size=config.batch_size, max_epochs=config.max_epochs,
                    patience=config.patience, learning_rate=config.learning_rate,
                    seed=seed),
    )

    report = score_split(result.model, inputs["test"], test_set.labels)

    save_checkpoint(result.model, os.path.join(out_dir, "checkpoint.json"),
                    config_hash=config.config_hash(),
                    extra={
                        "seed": seed,
                        "dataset": dataset_id,
                        "preprocess": state.to_json_dict(),
                        "config": config.to_json_dict(include_unhashed=False),
                    })
    write_json(os.path.join(out_dir, "history.json"), {
        "seed": seed,
        "config_hash": config.config_hash(),
        "best_epoch": result.best_epoch,
        "best_val_loss": result.best_val_loss,
        "history": result.history,
    })
    write_json(os.path.join(out_dir, "report.json"),
                _report_doc(config.task, config.config_hash(), seed, dataset_id, "test",
                            report))
    return report


def run_experiment(config: RunConfig) -> dict:
    """All seeds of one configuration; returns the summary document."""
    run_dir = os.path.join(config.output_dir, config.task)
    marker = os.path.join(run_dir, "config.json")
    if os.path.exists(marker) and not config.force:
        with open(marker, encoding="utf-8") as fh:
            existing = json.load(fh).get("config_hash")
        raise ConfigError(
            f"run directory {run_dir!r} already holds a run (config hash "
            f"{existing}); pass --force to overwrite"
        )
    # a dataset the run rejects must not leave a marker that blocks the rerun
    dataset, dataset_id = load_run_dataset(config)
    os.makedirs(run_dir, exist_ok=True)
    write_json(marker, {"config_hash": config.config_hash(),
                         "config": config.to_json_dict()})

    reports = []
    for seed in config.seeds:
        report = run_single_seed(config, dataset, dataset_id, seed,
                                 os.path.join(run_dir, f"seed_{seed}"))
        reports.append((seed, report))

    summary = {
        "task": config.task,
        "config_hash": config.config_hash(),
        "dataset": dataset_id,
        "seeds": list(config.seeds),
        "per_seed": {str(seed): asdict(r) for seed, r in reports},
        "aggregate": summarize([r for _, r in reports]),
    }
    write_json(os.path.join(run_dir, "summary.json"), summary)
    return summary


def evaluate_checkpoint(checkpoint_path: str, manifest_path: str | None = None,
                        split_name: str = "test") -> dict:
    """Re-evaluate a trained checkpoint on a dataset split.

    The checkpoint carries the training seed and preprocess statistics,
    so evaluating a run's own dataset reproduces its report exactly.
    Without a manifest, a synthetic training dataset is regenerated
    from the configuration embedded in the checkpoint.
    """
    splits = ("train", "val", "test")
    if split_name not in splits:
        raise ConfigError(f"split must be one of train/val/test, got {split_name!r}")
    model, doc = load_checkpoint(checkpoint_path)
    extra = doc.get("extra", {})
    if "preprocess" not in extra or "seed" not in extra:
        raise DataError("checkpoint lacks the preprocess/seed metadata needed for evaluation")
    state = PreprocessState.from_json_dict(extra["preprocess"])
    seed = int(extra["seed"])
    if manifest_path is None:
        synth = (extra.get("config") or {}).get("synthetic")
        if not synth:
            raise DataError("no dataset manifest given and the checkpoint was not "
                            "trained on synthetic data")
        dataset = generate_synthetic(SyntheticConfig(**synth))
    else:
        dataset = load_dataset(manifest_path)

    part = split(dataset, seed)[splits.index(split_name)]
    specs = [src.spec for src in model.sources]
    report = score_split(model, split_inputs(specs, state, part), part.labels)

    dataset_id = extra["dataset"] if "dataset" in extra else manifest_hash(manifest_path)
    return _report_doc(extra.get("config", {}).get("task", "eval"), doc.get("config_hash", ""),
                       seed, dataset_id, split_name, report)
