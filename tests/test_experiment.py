"""Experiment driver: runs, artifacts and checkpoint re-evaluation."""

import json

import numpy as np
import pytest

from evidfuse.config import RunConfig
from evidfuse.data import Dataset, FeatureSpec, SyntheticConfig, fit_preprocess, write_dataset
from evidfuse.errors import ConfigError, DataError
from evidfuse.experiment import evaluate_checkpoint, resolve_source_specs, run_experiment
from evidfuse.model import SourceSpec, model_to_json_dict
from helpers import tiny_fusion_setup


def tiny_config(out_dir, seeds=(3,)):
    return RunConfig(
        task="tiny",
        synthetic=SyntheticConfig(n=120, d_struct=4, d_embed=3, seed=5),
        prototypes=3,
        encoder_output_dim=8,
        text_hidden_dim=8,
        max_epochs=2,
        seeds=seeds,
        output_dir=str(out_dir),
    )


def mixed_dataset(n=120, seed=0, embeddings=True):
    """Numerical and categorical features with missing cells, a constant
    column, and (optionally) note embeddings."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    num = rng.normal(size=(n, 2)) + labels[:, None]
    num[rng.random((n, 2)) < 0.1] = np.nan
    cat = np.array(["a", "b", "c"], dtype=object)[(rng.integers(0, 3, size=(n, 2))
                                                   + labels[:, None]) % 3]
    cat[rng.random((n, 2)) < 0.1] = None
    return Dataset(
        schema=(FeatureSpec("n0", "numerical"), FeatureSpec("c0", "categorical"),
                FeatureSpec("flat", "numerical"), FeatureSpec("n1", "numerical"),
                FeatureSpec("c1", "categorical")),
        ids=[f"p{i}" for i in range(n)],
        columns=[num[:, 0], cat[:, 0], np.ones(n), num[:, 1], cat[:, 1]],
        labels=labels,
        embeddings=rng.normal(size=(n, 3)) + labels[:, None] if embeddings else None,
    )


def checkpoint_without_encoder():
    model, _, _ = tiny_fusion_setup(n=20)
    doc = model_to_json_dict(model)
    del doc["sources"][0]["encoder"]
    return doc


def tiny_run(tmp_path, seed=3):
    run_experiment(tiny_config(tmp_path, seeds=(seed,)))
    return tmp_path / "tiny" / f"seed_{seed}"


class TestGoldenRun:
    def test_artifacts_byte_identical_across_output_dirs(self, tmp_path):
        """Only config.json's unhashed output_dir may tell two runs apart."""
        self._assert_identical_runs(tmp_path, lambda out: tiny_config(out, seeds=(0, 1)))

    def test_data_types_run_byte_identical(self, tmp_path):
        """The categorical path end to end: a manifest with categorical
        columns and missing cells, split by data type."""
        manifest = write_dataset(mixed_dataset(), str(tmp_path / "data"))
        self._assert_identical_runs(tmp_path, lambda out: RunConfig(
            task="tiny", dataset=manifest, fusion_grouping="data-types", prototypes=3,
            encoder_output_dim=8, text_hidden_dim=8, max_epochs=2, seeds=(0, 1),
            output_dir=str(out)))

    @staticmethod
    def _assert_identical_runs(tmp_path, make_config):
        run_dirs = []
        for name in ("a", "b"):
            config = make_config(tmp_path / name)
            run_experiment(config)
            run_dirs.append(tmp_path / name / config.task)
        paths = [sorted(p.relative_to(d) for p in d.rglob("*") if p.is_file()) for d in run_dirs]
        assert paths[0] == paths[1]
        assert len(paths[0]) == 2 + 3 * 2   # config, summary; checkpoint, history, report
        for rel in paths[0]:
            a, b = ((d / rel).read_bytes() for d in run_dirs)
            if rel.name == "config.json":
                a, b = (json.loads(x) for x in (a, b))
                assert a["config"].pop("output_dir") != b["config"].pop("output_dir")
            assert a == b, rel


class TestEvaluateCheckpoint:
    def test_synthetic_checkpoint_without_manifest_reproduces_report(self, tmp_path):
        seed_dir = tiny_run(tmp_path)
        report = evaluate_checkpoint(str(seed_dir / "checkpoint.json"))
        saved = json.loads((seed_dir / "report.json").read_text(encoding="utf-8"))
        assert json.loads(json.dumps(report)) == saved

    def test_bad_split_rejected_before_loading(self, tmp_path):
        # neither file exists: only a check made before loading can answer
        with pytest.raises(ConfigError, match="split must be one of"):
            evaluate_checkpoint(str(tmp_path / "none.json"), str(tmp_path / "none"), "dev")

    def test_missing_checkpoint_is_data_error(self, tmp_path):
        path = str(tmp_path / "none.json")
        with pytest.raises(DataError, match="checkpoint not found: .*none.json"):
            evaluate_checkpoint(path)

    def test_malformed_checkpoint_is_data_error(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text('{"format_version": 1,', encoding="utf-8")
        with pytest.raises(DataError, match="malformed checkpoint .*checkpoint.json"):
            evaluate_checkpoint(str(path))

    @pytest.mark.parametrize("make_doc,raised", [
        (lambda: {"format_version": 1}, "KeyError"),
        (lambda: [], "AttributeError"),
        (checkpoint_without_encoder, "KeyError"),
    ], ids=["no-frame", "list", "source-without-encoder"])
    def test_parseable_non_checkpoint_is_data_error(self, tmp_path, make_doc, raised):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(make_doc()), encoding="utf-8")
        with pytest.raises(DataError, match=f"malformed checkpoint .*checkpoint.json: {raised}"):
            evaluate_checkpoint(str(path))


class TestBinaryOnly:
    def test_multiclass_manifest_rejected_before_training(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 60
        dataset = Dataset(
            schema=(FeatureSpec("a", "numerical"), FeatureSpec("b", "numerical")),
            ids=[f"s{i}" for i in range(n)],
            columns=rng.normal(size=(n, 2)).T,
            labels=np.arange(n) % 3,
            m=3,
        )
        manifest = write_dataset(dataset, str(tmp_path / "data"))
        config = RunConfig(task="three", dataset=manifest, prototypes=3, max_epochs=1,
                           seeds=(0,), output_dir=str(tmp_path / "runs"))
        for _ in range(2):
            # the rejected run leaves no marker, so the rerun fails the same way
            with pytest.raises(DataError, match="binary"):
                run_experiment(config)
            assert not (tmp_path / "runs" / "three" / "config.json").exists()
        assert not list((tmp_path / "runs" / "three").glob("seed_*"))


class TestCustomSourceEntries:
    @pytest.mark.parametrize("entry,message", [
        ({"encoder": "cnn"}, "encoder must be 'mlp' or 'resnet', got 'cnn'"),
        ({"aux_weight": -1}, "aux_weight must be a number >= 0, got -1"),
        ({"aux_weight": "2"}, "aux_weight must be a number >= 0, got '2'"),
        ({"aux_wieght": 0.5}, r"unknown keys \['aux_wieght'\]"),
        ({"encodr": "resnet"}, r"unknown keys \['encodr'\]"),
    ], ids=["cnn-encoder", "negative-aux-weight", "string-aux-weight", "misspelled-aux-weight",
            "misspelled-encoder"])
    def test_rejected_before_the_run_is_marked(self, tmp_path, entry, message):
        sources = ({"name": "labs", "features": ["x0"], **entry},)
        for _ in range(2):
            # nothing marks the run directory, so the rerun fails the same way
            with pytest.raises(ConfigError, match=f"custom source 'labs': {message}"):
                run_experiment(RunConfig(
                    task="custom", synthetic=SyntheticConfig(n=120, seed=5),
                    fusion_grouping="custom", custom_sources=sources, max_epochs=1,
                    seeds=(0,), output_dir=str(tmp_path)))
            assert not (tmp_path / "custom" / "config.json").exists()


class TestTooFewDistinctRows:
    def test_binary_categoricals_cannot_hold_default_prototypes(self, tmp_path):
        """Two binary categoricals one-hot encode to at most 4 distinct rows,
        fewer than the default 20 prototypes."""
        rng = np.random.default_rng(0)
        n = 120
        labels = np.arange(n) % 2
        cat = np.array(["a", "b"], dtype=object)[rng.integers(0, 2, size=(n, 2))]
        dataset = Dataset(
            schema=(FeatureSpec("n0", "numerical"), FeatureSpec("c0", "categorical"),
                    FeatureSpec("c1", "categorical")),
            ids=[f"p{i}" for i in range(n)],
            columns=[rng.normal(size=n) + labels, cat[:, 0], cat[:, 1]],
            labels=labels,
        )
        manifest = write_dataset(dataset, str(tmp_path / "data"))
        config = RunConfig(task="few", dataset=manifest, fusion_grouping="data-types",
                           encoder_output_dim=8, max_epochs=1, seeds=(0,),
                           output_dir=str(tmp_path / "runs"))
        assert config.prototypes == 20
        with pytest.raises(DataError, match="source 'categorical': cannot place 20 "
                                            "prototypes on 4 distinct rows"):
            run_experiment(config)


class TestResolveSourceSpecs:
    @staticmethod
    def _resolve(dataset=None, **kw):
        dataset = dataset if dataset is not None else mixed_dataset()
        config = RunConfig(dataset="unused.json", **kw)
        return resolve_source_specs(config, dataset, fit_preprocess(dataset))

    def test_modalities_skips_dropped_features(self):
        specs = self._resolve()
        assert specs == [
            SourceSpec("structured", "mlp", 2.0, ("n0", "c0", "n1", "c1")),
            SourceSpec("notes", "text-head", 1.0, None),
        ]

    def test_data_types(self):
        specs = self._resolve(fusion_grouping="data-types", encoder="resnet",
                              aux_weight_structured=0.5, aux_weight_text=0.25)
        assert specs == [
            SourceSpec("numerical", "resnet", 0.5, ("n0", "n1")),
            SourceSpec("categorical", "resnet", 0.5, ("c0", "c1")),
            SourceSpec("notes", "text-head", 0.25, None),
        ]

    @pytest.mark.parametrize("kind", ["numerical", "categorical"])
    def test_data_types_needs_both_kinds(self, kind):
        full = mixed_dataset()
        keep = [j for j, f in enumerate(full.schema) if f.kind == kind]
        one_kind = Dataset(schema=tuple(full.schema[j] for j in keep), ids=full.ids,
                           columns=[full.columns[j] for j in keep], labels=full.labels,
                           embeddings=full.embeddings)
        with pytest.raises(ConfigError, match="both numerical and categorical"):
            self._resolve(one_kind, fusion_grouping="data-types")

    def test_data_sources_split_in_schema_order(self):
        specs = self._resolve(fusion_grouping="data-sources", n_source_blocks=3)
        assert [(s.name, s.feature_names) for s in specs] == [
            ("block0", ("n0", "c0")), ("block1", ("n1",)), ("block2", ("c1",)),
            ("notes", None),
        ]
        assert all(type(name) is str for s in specs[:-1] for name in s.feature_names)

    def test_data_sources_too_many_blocks(self):
        with pytest.raises(ConfigError, match="cannot split 4 features into 5 blocks"):
            self._resolve(fusion_grouping="data-sources", n_source_blocks=5)

    def test_custom(self):
        specs = self._resolve(fusion_grouping="custom", custom_sources=(
            {"name": "labs", "features": ["n1", "n0"]},
            {"name": "codes", "features": ["c0"], "encoder": "resnet", "aux_weight": 0.5},
            {"name": "text", "embedding": True},
        ))
        assert specs == [
            SourceSpec("labs", "mlp", 2.0, ("n1", "n0")),
            SourceSpec("codes", "resnet", 0.5, ("c0",)),
            SourceSpec("notes", "text-head", 1.0, None),
        ]

    @pytest.mark.parametrize("features,message", [
        (["n0", "flat"], r"unknown features \['flat'\]"),
        (["n0", "absent"], r"unknown features \['absent'\]"),
        ([], "lists no features"),
    ])
    def test_custom_rejects_bad_feature_lists(self, features, message):
        with pytest.raises(ConfigError, match=message):
            self._resolve(fusion_grouping="custom",
                          custom_sources=({"name": "labs", "features": features},))

    @pytest.mark.parametrize("grouping,extra", [
        ("modalities", {}), ("data-types", {}), ("data-sources", {"n_source_blocks": 2}),
        ("custom", {"custom_sources": ({"name": "labs", "features": ["n0"]},)}),
    ])
    def test_notes_source_appended_last_only_with_embeddings(self, grouping, extra):
        with_text = self._resolve(fusion_grouping=grouping, **extra)
        assert with_text[-1] == SourceSpec("notes", "text-head", 1.0, None)
        assert [s.name for s in with_text].count("notes") == 1
        without = self._resolve(mixed_dataset(embeddings=False), fusion_grouping=grouping,
                                **extra)
        assert without == with_text[:-1]
