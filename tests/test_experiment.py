"""Experiment driver: runs, artifacts and checkpoint re-evaluation."""

import dataclasses
import hashlib
import json
import re
import shutil
import warnings

import numpy as np
import pytest

from evidfuse.config import RunConfig
from evidfuse.data import (Dataset, FeatureSpec, SyntheticConfig, fit_preprocess,
                           generate_synthetic, load_dataset, manifest_hash, split_indices,
                           write_dataset)
from evidfuse.errors import ConfigError, DataError, NumericalError
from evidfuse.experiment import evaluate_checkpoint, resolve_source_specs, run_experiment
from evidfuse.model import SourceSpec, model_to_json_dict
from helpers import (as_version_1, checkpoint_as_version_1, f8_as_list, list_as_f8, mixed_dataset,
                     set_item, tamper, tiny_fusion_setup)


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
        """No file, config.json included, names the output directory."""
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
            assert a == b, rel


def run_files(run_dir):
    return {p.relative_to(run_dir): p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}


class TestRunDirectoryMarker:
    def test_rerun_needs_force_and_writes_the_same_bytes(self, tmp_path):
        config = tiny_config(tmp_path)
        run_experiment(config)
        first = run_files(tmp_path / "tiny")
        with pytest.raises(ConfigError, match=rf"already holds a run \(config hash "
                                              rf"{config.config_hash()}\); set force=True"):
            run_experiment(config)
        assert run_files(tmp_path / "tiny") == first
        run_experiment(dataclasses.replace(config, force=True))
        assert run_files(tmp_path / "tiny") == first

    def test_forced_rerun_leaves_only_its_own_seeds(self, tmp_path):
        config = tiny_config(tmp_path, seeds=(0, 1))
        run_experiment(config)
        run_dir = tmp_path / "tiny"
        (run_dir / "notes.txt").write_text("kept", encoding="utf-8")
        (run_dir / "seed_x").mkdir()
        before = run_files(run_dir)
        # a rerun that its checks reject leaves the old run as it was
        rejected = dataclasses.replace(
            config, seeds=(0,), force=True, fusion_grouping="custom",
            custom_sources=({"name": "a", "features": ["nope"]},))
        with pytest.raises(ConfigError, match="unknown features"):
            run_experiment(rejected)
        assert run_files(run_dir) == before
        rerun = dataclasses.replace(config, seeds=(0,), force=True)
        summary = run_experiment(rerun)
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "config.json", "notes.txt", "seed_0", "seed_x", "summary.json"]
        assert json.loads((run_dir / "summary.json").read_text(encoding="utf-8")) == summary
        assert summary["seeds"] == [0]


class TestEvaluateCheckpoint:
    def test_synthetic_checkpoint_without_manifest_reproduces_report(self, tmp_path):
        seed_dir = tiny_run(tmp_path)
        report = evaluate_checkpoint(str(seed_dir / "checkpoint.json"))
        saved = json.loads((seed_dir / "report.json").read_text(encoding="utf-8"))
        assert json.loads(json.dumps(report)) == saved

    def test_version_1_checkpoint_reproduces_report(self, tmp_path):
        seed_dir = tiny_run(tmp_path)
        path = str(seed_dir / "checkpoint.json")
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["format_version"] == 2
        report = evaluate_checkpoint(checkpoint_as_version_1(path))
        saved = json.loads((seed_dir / "report.json").read_text(encoding="utf-8"))
        assert json.loads(json.dumps(report)) == saved

    def test_checkpoint_without_dataset_id_names_the_synthetic_seed(self, tmp_path):
        seed_dir = tiny_run(tmp_path)
        path = seed_dir / "checkpoint.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["extra"]["dataset"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        report = evaluate_checkpoint(str(path))
        saved = json.loads((seed_dir / "report.json").read_text(encoding="utf-8"))
        assert saved["dataset"] == "synthetic:5"
        assert json.loads(json.dumps(report)) == saved

    def test_synthetic_checkpoint_on_a_manifest_names_what_it_scored(self, tmp_path):
        """A manifest of the run's own synthetic data reproduces its report;
        one of other synthetic data is named by its hash."""
        seed_dir = tiny_run(tmp_path)
        saved = json.loads((seed_dir / "report.json").read_text(encoding="utf-8"))
        synthetic = tiny_config(tmp_path).synthetic
        own = write_dataset(generate_synthetic(synthetic), str(tmp_path / "own"))
        other = write_dataset(generate_synthetic(dataclasses.replace(synthetic, seed=6)),
                              str(tmp_path / "other"))
        checkpoint = str(seed_dir / "checkpoint.json")
        assert json.loads(json.dumps(evaluate_checkpoint(checkpoint, own))) == saved
        assert evaluate_checkpoint(checkpoint, other)["dataset"] == manifest_hash(other)

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

    @pytest.mark.parametrize("edit,raised", [
        (lambda extra: extra["preprocess"].pop("layout"), "KeyError"),
        (lambda extra: extra.update(seed="x"), "ConfigError: seed must be an integer"),
        (lambda extra: extra.update(seed=7.5), "ConfigError: seed must be an integer"),
        (lambda extra: extra.update(seed=-1), "ConfigError: seed must be >= 0, got -1"),
        (lambda extra: extra["config"]["synthetic"].update(bogus=1), "TypeError"),
        (lambda extra: extra["config"]["synthetic"].update(seed=-2),
         "ConfigError: seed must be >= 0, got -2"),
        (lambda extra: extra.pop("seed"), "DataError: no preprocess/seed metadata"),
    ], ids=["preprocess-without-layout", "string-seed", "float-seed", "negative-seed",
            "unknown-synthetic-key", "negative-synthetic-seed", "no-seed"])
    def test_malformed_extra_names_the_checkpoint(self, tmp_path, edit, raised):
        path = tiny_run(tmp_path) / "checkpoint.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc["extra"])
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=f"malformed checkpoint .*checkpoint.json: {raised}"):
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


    @pytest.mark.parametrize("action", ["error", "default"])
    def test_forward_that_overflows_names_the_checkpoint(self, tmp_path, action):
        """Finite encoder weights whose outputs square past float64's
        range: under either warning filter, a NumericalError naming the
        checkpoint, and no RuntimeWarning."""
        run_experiment(RunConfig(synthetic=SyntheticConfig(n=200), max_epochs=1, seeds=(0,),
                                 output_dir=str(tmp_path)))
        path = tmp_path / "experiment" / "seed_0" / "checkpoint.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        params = doc["sources"][0]["encoder"]["params"]
        params["w2"] = list_as_f8(np.asarray(f8_as_list(params["w2"])) * 1e160)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter(action)
            with pytest.raises(NumericalError, match=re.escape(f"scoring checkpoint {path} ")):
                evaluate_checkpoint(str(path))
        assert not seen, [str(w.message) for w in seen]

    def test_benign_overflow_also_rejects_the_checkpoint(self, tmp_path):
        """Any overflow while scoring rejects the checkpoint, also one
        whose result is exact: a ``support_raw`` of -800 overflows ``exp``
        in the sigmoid, although its support is a well-defined 0."""
        run_experiment(RunConfig(synthetic=SyntheticConfig(n=200), max_epochs=1, seeds=(0,),
                                 output_dir=str(tmp_path)))
        path = tmp_path / "experiment" / "seed_0" / "checkpoint.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        enn = doc["sources"][0]["enn"]
        support = np.asarray(f8_as_list(enn["support_raw"]))
        support[0] = -800.0
        enn["support_raw"] = list_as_f8(support)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(NumericalError, match="overflow encountered in exp"):
            evaluate_checkpoint(str(path))


MANIFEST_SEED = 3
# a training row and a test row of mixed_dataset() split at MANIFEST_SEED
OUTSIDE, INSIDE = (int(rows[0]) for rows in split_indices(120, MANIFEST_SEED)[::2])


def set_cell(row, column, value):
    """A structured.csv edit: one cell of data row ``row``."""
    def edit(lines):
        cells = lines[row + 1].split(",")
        cells[column] = value
        lines[row + 1] = ",".join(cells)
    return edit


class TestEvaluateManifestCheckpoint:
    """``evaluate_checkpoint`` checks every row of a manifest, not only the
    scored split's: every line of a version-1 manifest's text files, every
    array of a version-2 manifest's binary files."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("manifest-run")
        manifest = write_dataset(mixed_dataset(), str(root / "data"))
        run_experiment(RunConfig(task="tiny", dataset=manifest, prototypes=3,
                                 encoder_output_dim=8, text_hidden_dim=8, max_epochs=1,
                                 seeds=(MANIFEST_SEED,), output_dir=str(root / "runs")))
        return root

    @staticmethod
    def _evaluate(run, manifest):
        seed_dir = run / "runs" / "tiny" / f"seed_{MANIFEST_SEED}"
        report = evaluate_checkpoint(str(seed_dir / "checkpoint.json"), manifest)
        saved = json.loads((seed_dir / "report.json").read_text(encoding="utf-8"))
        return json.loads(json.dumps(report)), saved

    @staticmethod
    def _tampered(run, tmp_path, name, edit):
        """A copy of the run's data, its manifest rewritten as version 1,
        with ``edit`` applied to the lines of text file ``name``; returns
        the copy's manifest path."""
        shutil.copytree(run / "data", tmp_path / "data")
        manifest = as_version_1(str(tmp_path / "data" / "manifest.json"))
        path = tmp_path / "data" / name
        lines = path.read_text(encoding="utf-8").splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return manifest

    def test_reproduces_the_runs_report(self, run):
        report, saved = self._evaluate(run, str(run / "data" / "manifest.json"))
        assert report == saved

    def test_report_names_the_manifest_it_scored(self, run, tmp_path):
        other = write_dataset(mixed_dataset(n=140, seed=1), str(tmp_path / "other"))
        report, saved = self._evaluate(run, other)
        assert saved["dataset"] == manifest_hash(str(run / "data" / "manifest.json"))
        assert report["dataset"] == manifest_hash(other) != saved["dataset"]

    def test_version_1_manifest_reports_its_unchanged_sha256(self, run, tmp_path):
        manifest = self._tampered(run, tmp_path, "structured.csv", lambda lines: None)
        with open(manifest, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        report, saved = self._evaluate(run, manifest)
        assert report == dict(saved, dataset=digest) != saved
        assert manifest_hash(manifest) == digest

    def test_bad_cell_outside_the_split_is_rejected(self, run, tmp_path):
        manifest = self._tampered(run, tmp_path, "structured.csv", set_cell(OUTSIDE, 0, "nan"))
        message = rf"structured\.csv:{OUTSIDE + 2}: feature 'n0': not a finite number 'nan'$"
        with pytest.raises(DataError, match=message):
            self._evaluate(run, manifest)
        with pytest.raises(DataError, match=message):
            load_dataset(manifest)

    @pytest.mark.parametrize("name,edit,message", [
        ("structured.csv", set_cell(INSIDE, 0, "nan"),
         rf"structured\.csv:{INSIDE + 2}: feature 'n0': not a finite number 'nan'"),
        ("structured.csv", set_cell(OUTSIDE, 5, "yes"),
         rf"structured\.csv:{OUTSIDE + 2}: bad label 'yes'"),
        ("structured.csv", set_cell(OUTSIDE, 5, "2"),
         rf"structured\.csv:{OUTSIDE + 2}: label 2 outside 0\.\.1"),
        ("structured.csv", set_cell(OUTSIDE, 6, f"p{OUTSIDE},extra"),
         rf"structured\.csv:{OUTSIDE + 2}: wrong column count"),
        ("structured.csv", set_cell(OUTSIDE, 6, f"p{INSIDE}"),
         rf"structured\.csv:{max(OUTSIDE, INSIDE) + 2}: duplicate id 'p{INSIDE}'"),
        ("embeddings.jsonl", lambda lines: lines.append(lines[OUTSIDE]),
         rf"embeddings\.jsonl:121: duplicate id 'p{OUTSIDE}'"),
    ], ids=["bad-cell-inside", "bad-label", "label-out-of-range", "wrong-width",
            "duplicate-csv-id", "duplicate-jsonl-id"])
    def test_every_row_checks_still_cover_every_row(self, run, tmp_path, name, edit, message):
        manifest = self._tampered(run, tmp_path, name, edit)
        with pytest.raises(DataError, match=message):
            self._evaluate(run, manifest)

    def test_binary_copy_is_checked_whole(self, run, tmp_path):
        """Of a version-2 manifest, a bad value outside the scored split
        fails evaluation too."""
        shutil.copytree(run / "data", tmp_path / "data")
        manifest = str(tmp_path / "data" / "manifest.json")
        tamper(manifest, "numerical", "array", set_item((OUTSIDE, 0), np.inf))
        with pytest.raises(DataError, match=rf"numerical\.npy: row {OUTSIDE}: feature 'n0': "
                                            r"infinite value$"):
            self._evaluate(run, manifest)


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

    @pytest.mark.parametrize("n,rate,data_seed,message", [
        (40, 0.08, 1, "the test split holds no sample of class 1"),
        (20, 0.05, 1, "the train split holds no sample of class 1"),
    ], ids=["test-part", "train-part"])
    def test_split_without_a_class_rejected_before_training(self, tmp_path, n, rate,
                                                             data_seed, message):
        config = RunConfig(task="rare", synthetic=SyntheticConfig(
                               n=n, positive_rate=rate, seed=data_seed),
                           prototypes=3, max_epochs=1, seeds=(0,),
                           output_dir=str(tmp_path / "runs"))
        for _ in range(2):
            # the rejected run leaves no marker, so the rerun fails the same way
            with pytest.raises(DataError, match=f"seed 0: {message}$"):
                run_experiment(config)
            assert not (tmp_path / "runs" / "rare" / "config.json").exists()
        assert not list((tmp_path / "runs" / "rare").glob("seed_*"))


class TestCustomSourceEntries:
    @pytest.mark.parametrize("entry,message", [
        ({"encoder": "cnn"}, "encoder must be 'mlp' or 'resnet', got 'cnn'"),
        ({"aux_weight": -1}, "aux_weight must be a number >= 0, got -1"),
        ({"aux_weight": "2"}, "aux_weight must be a number >= 0, got '2'"),
        ({"aux_wieght": 0.5}, r"unknown keys \['aux_wieght'\]"),
        ({"encodr": "resnet"}, r"unknown keys \['encodr'\]"),
        ({"features": "x0"}, "features must be a list of names, got 'x0'"),
        ({"features": [1, 2]}, r"features must be a list of names, got \[1, 2\]"),
    ], ids=["cnn-encoder", "negative-aux-weight", "string-aux-weight", "misspelled-aux-weight",
            "misspelled-encoder", "features-string", "features-not-names"])
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

    @pytest.mark.parametrize("entry,message", [
        ({"name": "a", "features": ["nope"]}, r"custom source 'a': unknown features \['nope'\]"),
        ({"name": "a", "features": []}, "custom source 'a': lists no features"),
        ({"features": ["x0"]}, "custom source None: a feature source needs a string 'name'"),
    ], ids=["unknown-feature", "no-features", "no-name"])
    def test_bad_feature_list_or_name_leaves_no_marker(self, tmp_path, entry, message):
        for _ in range(2):
            with pytest.raises(ConfigError, match=message):
                run_experiment(RunConfig(
                    task="custom", synthetic=SyntheticConfig(n=120, seed=5),
                    fusion_grouping="custom", custom_sources=(entry,), max_epochs=1,
                    seeds=(0,), output_dir=str(tmp_path)))
            assert not (tmp_path / "custom" / "config.json").exists()

    @pytest.mark.parametrize("entry", ["a", 5, ["name", "a"]])
    def test_non_object_entry_leaves_no_marker(self, tmp_path, entry):
        for _ in range(2):
            with pytest.raises(ConfigError, match=r"custom source entry .* is not an object"):
                run_experiment(RunConfig(
                    task="custom", synthetic=SyntheticConfig(n=120, seed=5),
                    fusion_grouping="custom", custom_sources=(entry,), max_epochs=1,
                    seeds=(0,), output_dir=str(tmp_path)))
            assert not (tmp_path / "custom" / "config.json").exists()

    def test_constant_feature_leaves_no_marker(self, tmp_path):
        """``flat`` is constant, so preprocessing would drop it after the
        marker is written; the run is rejected before."""
        manifest = write_dataset(mixed_dataset(), str(tmp_path / "data"))
        config = RunConfig(task="custom", dataset=manifest, fusion_grouping="custom",
                           custom_sources=({"name": "a", "features": ["n0", "flat"]},),
                           prototypes=3, max_epochs=1, seeds=(0,),
                           output_dir=str(tmp_path / "runs"))
        for _ in range(2):
            with pytest.raises(ConfigError, match=r"custom source 'a': features \['flat'\] "
                                                  "are constant, so preprocessing drops them"):
                run_experiment(config)
            assert not (tmp_path / "runs" / "custom" / "config.json").exists()


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
        (["n0", "flat"], r"features \['flat'\] are constant, so preprocessing drops them"),
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
