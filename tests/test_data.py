"""Data pipeline: splitting, preprocessing, weights, synthetic generation."""

import csv
import hashlib
import io
import json
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidfuse import data
from evidfuse.data import (
    SPLIT_NAMES,
    Dataset,
    FeatureSpec,
    SyntheticConfig,
    apply_preprocess,
    bayes_optimal_auroc,
    class_weights,
    class_weights_from_counts,
    fit_preprocess,
    generate_synthetic,
    load_dataset,
    load_split,
    manifest_hash,
    split,
    write_dataset,
)
from evidfuse.errors import ConfigError, DataError
from helpers import (as_version_1, mixed_dataset, reference_load, reference_write_data_files,
                     set_item, tamper)


def toy_dataset(rows, schema, labels=None, **kw):
    """A dataset from row lists (None = missing), stored as columns."""
    n = len(rows)
    return Dataset(
        schema=tuple(schema),
        ids=[f"r{i}" for i in range(n)],
        columns=[[row[j] for row in rows] for j in range(len(schema))],
        labels=np.array(labels if labels is not None else [i % 2 for i in range(n)]),
        **kw,
    )


NUM = FeatureSpec("value", "numerical")
CAT = FeatureSpec("group", "categorical")


class TestSplit:
    def _ten(self):
        return toy_dataset([[float(i)] for i in range(10)], [NUM])

    def test_exact_proportions(self):
        train, val, test = split(self._ten(), seed=0)
        assert (train.n, val.n, test.n) == (6, 2, 2)

    def test_seed_reproducible(self):
        a = split(self._ten(), seed=4)
        b = split(self._ten(), seed=4)
        for x, y in zip(a, b):
            assert x.ids == y.ids

    def test_partition_is_exhaustive_and_disjoint(self):
        ds = self._ten()
        train, val, test = split(ds, seed=9)
        union = train.ids + val.ids + test.ids
        assert sorted(union) == sorted(ds.ids)
        assert len(set(union)) == 10

    def test_too_small_rejected(self):
        with pytest.raises(DataError):
            split(toy_dataset([[1.0]] * 9, [NUM], labels=[0, 1] * 4 + [0]), seed=0)


class TestPreprocess:
    def test_numerical_impute_and_zscore(self):
        ds = toy_dataset([[1.0], [2.0], [3.0], [None]], [NUM], labels=[0, 1, 0, 1])
        state = fit_preprocess(ds)
        mean, std = state.numerical["value"]
        assert mean == 2.0
        assert abs(std - math.sqrt(2.0 / 3.0)) <= 1e-12
        out = apply_preprocess(state, ds)
        np.testing.assert_allclose(out[:, 0], [-1.224745, 0.0, 1.224745, 0.0], atol=1e-6)

    def test_categorical_mode_and_width(self):
        ds = toy_dataset([["A"], ["A"], ["B"]], [CAT], labels=[0, 1, 0])
        state = fit_preprocess(ds)
        mode, categories = state.categorical["group"]
        assert mode == "A"
        assert categories == ("A", "B")
        out = apply_preprocess(state, ds)
        np.testing.assert_array_equal(out, [[1, 0], [1, 0], [0, 1]])

    def test_train_split_is_standardized(self):
        rng = np.random.default_rng(3)
        ds = toy_dataset(rng.normal(5.0, 2.0, size=(50, 1)).tolist(), [NUM],
                         labels=rng.integers(0, 2, 50))
        state = fit_preprocess(ds)
        out = apply_preprocess(state, ds)
        assert abs(out[:, 0].mean()) <= 1e-9
        assert abs(out[:, 0].std() - 1.0) <= 1e-9

    def test_missing_categorical_imputed_with_mode(self):
        ds = toy_dataset([["A"], ["A"], ["B"], [None]], [CAT], labels=[0, 1, 0, 1])
        out = apply_preprocess(fit_preprocess(ds), ds)
        np.testing.assert_array_equal(out[3], [1, 0])

    def test_categorical_mode_tie_takes_smallest(self):
        ds = toy_dataset([["B"], ["A"], ["B"], ["A"], [None]], [CAT], labels=[0, 1, 0, 1, 0])
        assert fit_preprocess(ds).categorical["group"] == ("A", ("A", "B"))

    def test_unseen_categories_logged_per_value(self, caplog):
        train = toy_dataset([["A"], ["B"]], [CAT], labels=[0, 1])
        fresh = toy_dataset([["D"], ["C"], ["A"], ["D"]], [CAT], labels=[0, 1, 0, 1])
        with caplog.at_level(logging.WARNING, logger="evidfuse.data"):
            out = apply_preprocess(fit_preprocess(train), fresh)
        np.testing.assert_array_equal(out, [[0, 0], [0, 0], [1, 0], [0, 0]])
        assert [r.getMessage() for r in caplog.records] == [
            "feature 'group': unseen category 'C' in 1 rows encoded as zeros",
            "feature 'group': unseen category 'D' in 2 rows encoded as zeros",
        ]

    def test_unseen_category_encodes_as_zeros(self):
        train = toy_dataset([["A"], ["B"]], [CAT], labels=[0, 1])
        state = fit_preprocess(train)
        fresh = toy_dataset([["C"]], [CAT], labels=[0])
        np.testing.assert_array_equal(apply_preprocess(state, fresh), [[0, 0]])

    def test_constant_feature_dropped(self):
        schema = [NUM, FeatureSpec("flat", "numerical")]
        ds = toy_dataset([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]], schema, labels=[0, 1, 0])
        state = fit_preprocess(ds)
        assert state.dropped == ("flat",)
        assert apply_preprocess(state, ds).shape == (3, 1)

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(5)
        ds = toy_dataset(rng.normal(size=(30, 1)).tolist(), [NUM],
                         labels=rng.integers(0, 2, 30))
        assert fit_preprocess(ds) == fit_preprocess(ds)

    def test_columns_for_slices_layout(self):
        schema = [NUM, CAT, FeatureSpec("other", "numerical")]
        ds = toy_dataset([[1.0, "A", 5.0], [2.0, "B", 6.0], [0.5, "A", 7.0]],
                         schema, labels=[0, 1, 0])
        state = fit_preprocess(ds)
        np.testing.assert_array_equal(state.columns_for(["value"]), [0])
        np.testing.assert_array_equal(state.columns_for(["group"]), [1, 2])
        np.testing.assert_array_equal(state.columns_for(["other"]), [3])
        with pytest.raises(DataError):
            state.columns_for(["absent"])

    def test_all_missing_feature_rejected(self):
        ds = toy_dataset([[None], [None]], [NUM], labels=[0, 1])
        with pytest.raises(DataError):
            fit_preprocess(ds)

    def test_json_text_is_the_list_form(self):
        ds = toy_dataset([[1.0, "A"], [2.0, "B"], [3.0, "A"]], [NUM, CAT], labels=[0, 1, 0])
        state = fit_preprocess(ds)
        from evidfuse.data import PreprocessState
        listed = {
            "numerical": {k: list(v) for k, v in state.numerical.items()},
            "categorical": {k: [v[0], list(v[1])] for k, v in state.categorical.items()},
            "dropped": list(state.dropped),
            "layout": [list(entry) for entry in state.layout],
        }
        text = json.dumps(state.to_json_dict(), sort_keys=True)
        assert text == json.dumps(listed, sort_keys=True)
        assert PreprocessState.from_json_dict(json.loads(text)) == state

    def test_json_round_trip(self):
        ds = toy_dataset([[1.0, "A"], [2.0, "B"], [3.0, "A"]], [NUM, CAT], labels=[0, 1, 0])
        state = fit_preprocess(ds)
        from evidfuse.data import PreprocessState
        assert PreprocessState.from_json_dict(state.to_json_dict()) == state


class TestClassWeights:
    def test_balanced_binary(self):
        np.testing.assert_allclose(class_weights([0, 1, 1, 0], 2), [1.0, 1.0])

    def test_inverse_frequency_identity(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 3, size=200)
        w = class_weights(labels, 3)
        counts = np.bincount(labels, minlength=3)
        assert abs(float(w @ counts) * 3 - 3 * 200) <= 1e-9  # sum w_c n_c == N

    def test_cohort_counts_match_published_ratios(self):
        # full-cohort mortality and prolonged-stay counts
        w_mort = class_weights_from_counts([4540, 33928], total=38469)
        np.testing.assert_allclose(w_mort, [4.2367, 0.5669], atol=5e-5)
        w_plos = class_weights_from_counts([5220, 33248], total=38469)
        np.testing.assert_allclose(w_plos, [3.6848, 0.5785], atol=5e-5)

    def test_absent_class_rejected(self):
        with pytest.raises(DataError):
            class_weights([0, 0, 0], 2)


class TestSyntheticGeneration:
    def test_pure_function_of_config(self):
        cfg = SyntheticConfig(n=100, d_struct=4, d_embed=3, seed=11)
        a, b = generate_synthetic(cfg), generate_synthetic(cfg)
        assert a.ids == b.ids
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(np.asarray(a.columns), np.asarray(b.columns))
        np.testing.assert_array_equal(a.embeddings, b.embeddings)

    def test_identical_bytes_on_disk(self, tmp_path):
        cfg = SyntheticConfig(n=50, d_struct=3, d_embed=2, seed=7)
        p1 = write_dataset(generate_synthetic(cfg), str(tmp_path / "a"))
        p2 = write_dataset(generate_synthetic(cfg), str(tmp_path / "b"))
        for name in ("manifest.json", "structured.csv", "embeddings.jsonl", "labels.npy",
                     "ids.npy", "numerical.npy", "categorical.npy", "embeddings.npy"):
            f1 = (tmp_path / "a" / name).read_bytes()
            f2 = (tmp_path / "b" / name).read_bytes()
            assert f1 == f2
        assert manifest_hash(p1) == manifest_hash(p2)

    def test_positive_rate_within_binomial_bound(self):
        rate = 0.118
        cfg = SyntheticConfig(n=5000, d_struct=2, d_embed=0, informativeness=(0.5,),
                              positive_rate=rate, seed=13)
        ds = generate_synthetic(cfg)
        sigma = math.sqrt(rate * (1 - rate) / 5000)
        assert abs(ds.labels.mean() - rate) <= 3 * sigma

    def test_zero_informativeness_means_no_signal(self):
        cfg = SyntheticConfig(n=4000, d_struct=3, d_embed=2,
                              informativeness=(0.0, 0.0), seed=17)
        ds = generate_synthetic(cfg)
        x = np.column_stack(ds.columns)
        pos, neg = x[ds.labels == 1], x[ds.labels == 0]
        assert np.linalg.norm(pos.mean(axis=0) - neg.mean(axis=0)) <= 0.15
        assert bayes_optimal_auroc(ds.generator) == pytest.approx(0.5)

    def test_conflict_flips_second_source(self):
        cfg = SyntheticConfig(n=3000, d_struct=2, d_embed=4,
                              informativeness=(0.5, 0.8), conflict_rate=1.0, seed=19)
        ds = generate_synthetic(cfg)
        pos_mean = ds.embeddings[ds.labels == 1].mean(axis=0)
        neg_mean = ds.embeddings[ds.labels == 0].mean(axis=0)
        clean = generate_synthetic(SyntheticConfig(
            n=3000, d_struct=2, d_embed=4, informativeness=(0.5, 0.8),
            conflict_rate=0.0, seed=19))
        clean_diff = clean.embeddings[clean.labels == 1].mean(axis=0) - \
            clean.embeddings[clean.labels == 0].mean(axis=0)
        # full conflict anti-aligns the class means
        assert np.dot(pos_mean - neg_mean, clean_diff) < 0

    def test_generator_recorded_in_manifest(self, tmp_path):
        cfg = SyntheticConfig(n=20, d_struct=2, d_embed=2, seed=23)
        path = write_dataset(generate_synthetic(cfg), str(tmp_path / "d"))
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["generator"]["seed"] == 23
        assert manifest["generator"]["separation_scale"] > 0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(n=10, positive_rate=1.5)
        with pytest.raises(ConfigError):
            SyntheticConfig(n=10, conflict_rate=0.5, d_embed=0, informativeness=(0.5,))
        with pytest.raises(ConfigError):
            SyntheticConfig(n=10, m=3)
        with pytest.raises(ConfigError):
            SyntheticConfig(n=10, informativeness=(0.5,))  # needs two entries
        for field, value in (("n", 60.5), ("n", 60.0), ("d_struct", True), ("d_embed", "8"),
                             ("m", 2.0), ("seed", 1.9), ("seed", None)):
            with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value!r}"):
                SyntheticConfig(**{"n": 10, field: value})


class TestBayesOracle:
    def test_composes_independent_sources(self):
        generator = {"separation_scale": 6.0, "informativeness": [0.25, 0.25]}
        single = bayes_optimal_auroc(generator, sources=[0])
        fused = bayes_optimal_auroc(generator)
        expected_single = 0.5 * (1 + math.erf((6.0 * 0.25) / math.sqrt(2) / math.sqrt(2)))
        assert single == pytest.approx(expected_single, abs=1e-12)
        assert fused > single

    def test_fully_informative_saturates(self):
        generator = {"separation_scale": 6.0, "informativeness": [1.0]}
        assert bayes_optimal_auroc(generator) > 0.999


def drop(*keys):
    """A manifest edit: delete the entry at path ``keys``."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
    return edit


class TestRoundTrip:
    def test_write_then_load_preserves_everything(self, tmp_path):
        cfg = SyntheticConfig(n=40, d_struct=3, d_embed=2, seed=29)
        ds = generate_synthetic(cfg)
        manifest_path = write_dataset(ds, str(tmp_path / "ds"))
        loaded = load_dataset(manifest_path)
        assert loaded.ids == ds.ids
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        np.testing.assert_allclose(np.column_stack(loaded.columns),
                                   np.column_stack(ds.columns), rtol=0, atol=0)
        np.testing.assert_allclose(loaded.embeddings, ds.embeddings, rtol=0, atol=0)
        assert loaded.m == ds.m

    def test_missing_cells_survive_round_trip(self, tmp_path):
        ds = toy_dataset([[1.0, "A"], [None, None], [3.0, "B"]], [NUM, CAT],
                         labels=[0, 1, 0])
        manifest_path = write_dataset(ds, str(tmp_path / "gap"))
        loaded = load_dataset(manifest_path)
        value, group = loaded.columns
        assert np.isnan(value[1]) and group[1] is None
        assert (value[0], group[0]) == (1.0, "A")

    def test_header_mismatch_rejected(self, tmp_path):
        ds = toy_dataset([[1.0]], [NUM], labels=[0])
        manifest_path = as_version_1(write_dataset(ds, str(tmp_path / "bad")))
        csv_path = tmp_path / "bad" / "structured.csv"
        text = csv_path.read_text().replace("value", "renamed")
        csv_path.write_text(text)
        with pytest.raises(DataError):
            load_dataset(manifest_path)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(str(tmp_path / "nope" / "manifest.json"))

    @pytest.mark.parametrize("edit", [
        None, drop("schema"), drop("files"), drop("files", "structured"), drop("m"),
        drop("schema", 0, "name"), drop("schema", 0, "kind"), lambda doc: doc.update(m="2"),
        drop("n"), lambda doc: doc.update(n="120"), lambda doc: doc.update(n=-1),
    ], ids=["list", "no-schema", "no-files", "no-structured-file", "no-m",
            "feature-without-name", "feature-without-kind", "m-not-integer",
            "no-n", "n-not-integer", "n-negative"])
    def test_malformed_manifest_is_data_error(self, tmp_path, edit):
        manifest = as_version_1(write_dataset(mixed_dataset(), str(tmp_path / "ds")))
        with open(manifest, encoding="utf-8") as fh:
            doc = json.load(fh)
        if edit is None:
            doc = []
        else:
            edit(doc)
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for load in (load_dataset, lambda path: load_split(path, 0, "test")):
            with pytest.raises(DataError, match=f"malformed manifest {re.escape(manifest)}"):
                load(manifest)

    @pytest.mark.parametrize("name,what", [("structured.csv", "structured data file"),
                                           ("embeddings.jsonl", "embeddings file")])
    def test_missing_data_file_is_data_error(self, tmp_path, name, what):
        manifest = as_version_1(write_dataset(mixed_dataset(), str(tmp_path / "ds")))
        (tmp_path / "ds" / name).unlink()
        for load in (load_dataset, lambda path: load_split(path, 0, "test")):
            with pytest.raises(DataError, match=f"{what} not found: .*ds.{re.escape(name)}$"):
                load(manifest)

    @pytest.mark.parametrize("version", [0, 3, "2", True, 2.0, 1.0, None])
    def test_unsupported_version_names_the_manifest(self, tmp_path, version):
        manifest = write_dataset(mixed_dataset(), str(tmp_path / "ds"))
        with open(manifest, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["format_version"] = version
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        message = f"unsupported manifest version {version!r} in {manifest}; supported versions: 1, 2"
        for load in (load_dataset, lambda path: load_split(path, 0, "test")):
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                load(manifest)

    def test_integer_of_too_many_digits_is_malformed(self, tmp_path):
        # json.load raises a ValueError that is not a JSONDecodeError for it
        manifest = write_dataset(mixed_dataset(), str(tmp_path / "ds"))
        with open(manifest, encoding="utf-8") as fh:
            text = fh.read()
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write(text.replace('"m": 2', '"m": ' + "2" * 5000))
        with pytest.raises(DataError, match=rf"malformed manifest {re.escape(manifest)}: "
                                            r"Exceeds the limit"):
            load_dataset(manifest)

    @pytest.mark.parametrize("version", [1, 2])
    def test_deeply_nested_json_is_malformed(self, tmp_path, version):
        # json.load raises a RecursionError, which is not a ValueError
        manifest = write_dataset(mixed_dataset(), str(tmp_path / "ds"))
        if version == 1:
            as_version_1(manifest)
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write("[" * 100_000 + "]" * 100_000)
        message = rf"^malformed manifest {re.escape(manifest)}: maximum recursion depth"
        for load in (load_dataset, lambda path: load_split(path, 0, "test"), reference_load):
            with pytest.raises(DataError, match=message):
                load(manifest)

    @pytest.mark.parametrize("field,value", [("n", True), ("n", False), ("m", True),
                                             ("m", False), ("m", 1), ("m", 0), ("m", -2)])
    @pytest.mark.parametrize("version", [1, 2])
    def test_bool_count_or_fewer_than_two_classes(self, tmp_path, version, field, value):
        # a bool is an int to isinstance: n = true read as 1 row, m = true as 1 class
        manifest = write_dataset(mixed_dataset(), str(tmp_path / "ds"))
        if version == 1:
            as_version_1(manifest)
        with open(manifest, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc[field] = value
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        least = 0 if field == "n" else 2
        message = (f"malformed manifest {manifest}: {field} must be an integer >= {least}, "
                   f"got {value!r}")
        for load in (load_dataset, lambda path: load_split(path, 0, "test")):
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                load(manifest)

    @pytest.mark.parametrize("edit", [
        drop("binary"), drop("binary", "labels"), drop("binary", "categorical"),
        drop("binary", "ids", "file"), drop("binary", "numerical", "sha256"),
        drop("binary", "embeddings", "size"), lambda doc: doc.update(binary=[]),
        drop("files", "structured"), lambda doc: doc.update(n="120"),
    ], ids=["no-binary", "no-labels", "no-categorical", "ids-without-file",
            "numerical-without-sha256", "embeddings-without-size", "binary-list",
            "no-structured-file", "n-not-integer"])
    def test_malformed_version_2_manifest_is_data_error(self, tmp_path, edit):
        manifest = write_dataset(mixed_dataset(), str(tmp_path / "ds"))
        with open(manifest, encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for load in (load_dataset, lambda path: load_split(path, 0, "test")):
            with pytest.raises(DataError, match=f"malformed manifest {re.escape(manifest)}"):
                load(manifest)

    @pytest.mark.parametrize("name", [5, None, ["n0"]])
    def test_feature_name_that_is_not_str(self, tmp_path, name):
        manifest = write_dataset(mixed_dataset(), str(tmp_path / "ds"))
        with open(manifest, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["schema"][0]["name"] = name
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for load in (load_dataset, lambda path: load_split(path, 0, "test")):
            with pytest.raises(DataError, match=re.escape(f"feature names must be str, got {name!r}")):
                load(manifest)

    @pytest.mark.parametrize("name", ["labels.npy", "ids.npy", "numerical.npy",
                                      "categorical.npy", "embeddings.npy"])
    def test_missing_binary_file_is_data_error(self, tmp_path, name):
        manifest = write_dataset(mixed_dataset(), str(tmp_path / "ds"))
        (tmp_path / "ds" / name).unlink()
        for load in (load_dataset, lambda path: load_split(path, 0, "test")):
            with pytest.raises(DataError,
                               match=f"binary data file not found: .*ds.{re.escape(name)}$"):
                load(manifest)

    def test_mixed_dataset_round_trips_bit_for_bit(self, tmp_path):
        ds = mixed_dataset()
        loaded = load_dataset(write_dataset(ds, str(tmp_path / "ds")))
        assert (loaded.ids, loaded.schema, loaded.m) == (ds.ids, ds.schema, ds.m)
        assert loaded.labels.tobytes() == ds.labels.tobytes()
        for feat, a, b in zip(ds.schema, loaded.columns, ds.columns):
            if feat.kind == "numerical":
                assert a.tobytes() == b.tobytes(), feat.name
            else:
                assert a.tolist() == b.tolist(), feat.name
        assert loaded.embeddings.tobytes() == ds.embeddings.tobytes()

    @pytest.mark.parametrize("bad_id", [0, None, 1.5, b"r1"])
    def test_non_str_id_rejected(self, bad_id):
        # an int id would come back from the CSV as "0" but stay 0 in the JSONL
        with pytest.raises(DataError, match="ids must be str"):
            Dataset(schema=(NUM,), ids=["r0", bad_id], columns=[[1.0, 2.0]],
                    labels=np.array([0, 1]), embeddings=np.zeros((2, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_embedding_rejected(self, value):
        # write_dataset would write it as NaN/Infinity, which load_dataset refuses
        embeddings = np.zeros((2, 3))
        embeddings[1, 2] = value
        with pytest.raises(DataError, match="embeddings must be finite"):
            toy_dataset([[1.0], [2.0]], [NUM], labels=[0, 1], embeddings=embeddings)

    @pytest.mark.parametrize("bad_id", ["a\x00", "\x00", "a\x00b"])
    def test_nul_in_id_rejected(self, bad_id):
        # fixed-width unicode would read "a\x00" back as "a", a repeat
        with pytest.raises(DataError, match="ids must not hold NUL"):
            Dataset(schema=(NUM,), ids=[bad_id, "a"], columns=[[1.0, 2.0]],
                    labels=np.array([0, 1]))

    @pytest.mark.parametrize("value", ["x\x00", "\x00"])
    def test_nul_in_category_rejected(self, value):
        with pytest.raises(DataError, match="'group': categorical values must not hold NUL"):
            toy_dataset([["x"], [value], [None]], [CAT])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            Dataset(schema=(NUM,), ids=["a", "a"], columns=[[1.0, 2.0]],
                    labels=np.array([0, 1]))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_numerical_value_rejected(self, value):
        with pytest.raises(DataError, match="'value'"):
            toy_dataset([[1.0], [value]], [NUM], labels=[0, 1])

    @pytest.mark.parametrize("value", [math.nan, 1, 1.5])
    def test_non_str_categorical_value_rejected(self, value):
        with pytest.raises(DataError, match="'group'.*str or None"):
            toy_dataset([["A"], [value]], [CAT], labels=[0, 1])

    def test_empty_string_category_rejected(self):
        # written as an empty cell, it would load back as missing
        with pytest.raises(DataError, match="'group': the empty string is not a category"):
            toy_dataset([[""], ["x"], [None]], [CAT])

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            Dataset(schema=(NUM, CAT), ids=["a", "b"], columns=[[1.0, 2.0], ["A"]],
                    labels=np.array([0, 1]))
        with pytest.raises(DataError):
            Dataset(schema=(NUM, CAT), ids=["a", "b"], columns=[[1.0, 2.0]],
                    labels=np.array([0, 1]))


class TestLoadRejects:
    """Malformed files fail at load with a DataError naming the file."""

    @staticmethod
    def _written(tmp_path):
        ds = toy_dataset([[1.0, "A"], [2.0, "B"], [None, None]], [NUM, CAT],
                         labels=[0, 1, 0], embeddings=np.arange(6.0).reshape(3, 2))
        return as_version_1(write_dataset(ds, str(tmp_path / "ds"))), tmp_path / "ds"

    @staticmethod
    def _replace_line(path, line_no, text):
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[line_no - 1] = text
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf"])
    def test_non_finite_numerical_cell(self, tmp_path, literal):
        manifest, d = self._written(tmp_path)
        self._replace_line(d / "structured.csv", 3, f"{literal},B,1,r1")
        with pytest.raises(DataError, match=r"structured\.csv:3: .*'value'"):
            load_dataset(manifest)

    def test_unparsable_numerical_cell(self, tmp_path):
        manifest, d = self._written(tmp_path)
        self._replace_line(d / "structured.csv", 4, "abc,,0,r2")
        with pytest.raises(DataError, match=r"structured\.csv:4: feature 'value': .*'abc'"):
            load_dataset(manifest)

    def test_bad_label(self, tmp_path):
        manifest, d = self._written(tmp_path)
        self._replace_line(d / "structured.csv", 3, "2.0,B,yes,r1")
        with pytest.raises(DataError, match=r"structured\.csv:3: bad label 'yes'"):
            load_dataset(manifest)

    # int() takes each of these; write_dataset writes none of them
    @pytest.mark.parametrize("cell", [" 1", "1 ", "+1", "0_1", "-0", "\u0661"])
    def test_label_that_is_not_ascii_digits(self, tmp_path, cell):
        manifest, d = self._written(tmp_path)
        self._replace_line(d / "structured.csv", 3, f"2.0,B,{cell},r1")
        for load in (load_dataset, lambda path: load_split(path, 0, "test")):
            with pytest.raises(DataError,
                               match=rf"structured\.csv:3: bad label {re.escape(repr(cell))}$"):
                load(manifest)

    # int() refuses more than 4300 digits
    @pytest.mark.parametrize("cell,message", [
        ("1" * 5000, f"label {'1' * 5000} outside 0..1"),
        ("0" * 5000 + "3", "label 3 outside 0..1"),
    ], ids=["5000-digits", "leading-zeros"])
    def test_label_of_too_many_digits(self, tmp_path, cell, message):
        manifest, d = self._written(tmp_path)
        self._replace_line(d / "structured.csv", 3, f"2.0,B,{cell},r1")
        for load in (load_dataset, lambda path: load_split(path, 0, "test")):
            with pytest.raises(DataError, match=rf"structured\.csv:3: {re.escape(message)}$"):
                load(manifest)

    def test_wrong_column_count(self, tmp_path):
        manifest, d = self._written(tmp_path)
        self._replace_line(d / "structured.csv", 4, ",,0")
        with pytest.raises(DataError, match=r"structured\.csv:4: wrong column count"):
            load_dataset(manifest)

    def test_missing_embedding_id(self, tmp_path):
        manifest, d = self._written(tmp_path)
        self._replace_line(d / "embeddings.jsonl", 2, "")
        with pytest.raises(DataError, match=r"embeddings\.jsonl: no embedding for id 'r1'"):
            load_dataset(manifest)

    @pytest.mark.parametrize("embedding", ["1.5", "[[2.0,3.0]]"])
    def test_scalar_or_nested_embeddings(self, tmp_path, embedding):
        manifest, d = self._written(tmp_path)
        lines = (d / "embeddings.jsonl").read_text().splitlines()
        (d / "embeddings.jsonl").write_text("".join(
            '{"embedding":%s,"id":"%s"}\n' % (embedding, json.loads(line)["id"])
            for line in lines))
        with pytest.raises(DataError, match=r"embeddings\.jsonl:1: need one equal-length"):
            load_dataset(manifest)

    def test_embeddings_without_rows(self, tmp_path):
        manifest, d = self._written(tmp_path)
        csv_path = d / "structured.csv"
        csv_path.write_text(csv_path.read_text().splitlines()[0] + "\n")
        doc = json.loads((d / "manifest.json").read_text())
        (d / "manifest.json").write_text(json.dumps(dict(doc, n=0)))
        with pytest.raises(DataError, match=r"embeddings\.jsonl: .*equal-length .*\(no rows\)"):
            load_dataset(manifest)

    def test_ragged_embeddings(self, tmp_path):
        manifest, d = self._written(tmp_path)
        self._replace_line(d / "embeddings.jsonl", 2, '{"embedding":[2.0],"id":"r1"}')
        with pytest.raises(DataError, match=r"embeddings\.jsonl:2: need one equal-length"):
            load_dataset(manifest)

    def test_non_numeric_embedding_entry(self, tmp_path):
        manifest, d = self._written(tmp_path)
        self._replace_line(d / "embeddings.jsonl", 2, '{"embedding":[2.0,"abc"],"id":"r1"}')
        with pytest.raises(DataError, match=r"embeddings\.jsonl:2: need one equal-length"):
            load_dataset(manifest)

    # numpy converts each of these to a float
    @pytest.mark.parametrize("values", ["[true,2.0]", '["2.5",2.0]', "[2.0,false]"])
    def test_embedding_value_that_is_not_a_number(self, tmp_path, values):
        manifest, d = self._written(tmp_path)
        self._replace_line(d / "embeddings.jsonl", 2, '{"embedding":%s,"id":"r1"}' % values)
        for load in (load_dataset, lambda path: load_split(path, 0, "test")):
            with pytest.raises(DataError, match=r"embeddings\.jsonl:2: need one equal-length "
                                                r"number list per sample \(a value that is "
                                                r"not a number\)$"):
                load(manifest)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "null"])
    def test_non_finite_embedding_entry(self, tmp_path, literal):
        manifest, d = self._written(tmp_path)
        self._replace_line(d / "embeddings.jsonl", 2,
                           '{"embedding":[2.0,%s],"id":"r1"}' % literal)
        with pytest.raises(DataError, match=r"embeddings\.jsonl: non-finite .*'r1'"):
            load_dataset(manifest)

    def test_label_out_of_range(self, tmp_path):
        manifest, d = self._written(tmp_path)
        self._replace_line(d / "structured.csv", 3, "2.0,B,2,r1")
        with pytest.raises(DataError, match=r"structured\.csv:3: label 2 outside 0\.\.1"):
            load_dataset(manifest)

    def test_duplicate_csv_id(self, tmp_path):
        manifest, d = self._written(tmp_path)
        self._replace_line(d / "structured.csv", 4, ",,0,r0")
        with pytest.raises(DataError, match=r"structured\.csv:4: duplicate id 'r0'"):
            load_dataset(manifest)

    def test_duplicate_embedding_id(self, tmp_path):
        manifest, d = self._written(tmp_path)
        self._replace_line(d / "embeddings.jsonl", 3, '{"embedding":[4.0,5.0],"id":"r0"}')
        with pytest.raises(DataError, match=r"embeddings\.jsonl:3: duplicate id 'r0'"):
            load_dataset(manifest)


class TestLoadSplit:
    @pytest.mark.parametrize("index,part", enumerate(("train", "val", "test")))
    def test_equals_the_split_of_the_whole_dataset(self, tmp_path, index, part):
        manifest = write_dataset(mixed_dataset(), str(tmp_path / "ds"))
        expected = split(load_dataset(manifest), seed=7)[index]
        loaded = load_split(manifest, 7, part)
        assert loaded.ids == expected.ids
        assert loaded.labels.dtype == expected.labels.dtype
        assert loaded.labels.tobytes() == expected.labels.tobytes()
        assert (loaded.schema, loaded.m, loaded.generator) == (
            expected.schema, expected.m, expected.generator)
        gaps = set()
        for feat, a, b in zip(expected.schema, loaded.columns, expected.columns):
            assert a.dtype == b.dtype
            missing = np.isnan(b) if feat.kind == "numerical" else np.equal(b, None)
            if missing.any():
                gaps.add(feat.kind)
            if feat.kind == "numerical":
                assert a.tobytes() == b.tobytes(), feat.name
                assert np.array_equal(np.isnan(a), missing)
            else:
                assert a.tolist() == b.tolist(), feat.name
                assert np.array_equal(np.equal(a, None), missing)
        assert gaps == {"numerical", "categorical"}
        assert loaded.embeddings.tobytes() == expected.embeddings.tobytes()

    def test_without_embeddings(self, tmp_path):
        manifest = write_dataset(mixed_dataset(embeddings=False), str(tmp_path / "ds"))
        loaded = load_split(manifest, 2, "val")
        assert loaded.embeddings is None
        assert loaded.ids == split(load_dataset(manifest), seed=2)[1].ids

    def test_unknown_part_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="split must be one of"):
            load_split(str(tmp_path / "none.json"), 0, "dev")


def assert_same_dataset(a, b):
    """Equal ids, labels, columns and embeddings, bit for bit."""
    assert (a.ids, a.schema, a.m, a.generator) == (b.ids, b.schema, b.m, b.generator)
    assert a.labels.tobytes() == b.labels.tobytes()
    for feat, x, y in zip(a.schema, a.columns, b.columns):
        assert x.dtype == y.dtype, feat.name
        if feat.kind == "numerical":
            assert x.tobytes() == y.tobytes(), feat.name
        else:
            assert x.tolist() == y.tolist(), feat.name
    if a.embeddings is None or b.embeddings is None:
        assert a.embeddings is b.embeddings
    else:
        assert a.embeddings.tobytes() == b.embeddings.tobytes()


def edit_lines(path, edits):
    """Rewrite a CSV with ``edits`` = {(data row, column): new cell text}."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for (row, column), text in edits.items():
        cells = lines[row + 1].split(",")
        cells[column] = text
        lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestBlockwiseRead:
    """The structured CSV, written in blocks of ``CSV_BLOCK_ROWS`` rows,
    is read line by line: loads return, and fail with, what a whole-file
    read would, and the first faulty line raises, in either loader."""

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_row_counts_around_the_block_size(self, tmp_path, offset):
        ds = mixed_dataset(n=data.CSV_BLOCK_ROWS + offset)
        manifest = as_version_1(write_dataset(ds, str(tmp_path / "ds")))
        loaded = load_dataset(manifest)
        assert_same_dataset(loaded, ds)
        for part, expected in zip(SPLIT_NAMES, split(loaded, seed=4)):
            assert_same_dataset(load_split(manifest, 4, part), expected)

    def test_zero_rows(self, tmp_path):
        ds = mixed_dataset(n=0, embeddings=False)
        manifest = as_version_1(write_dataset(ds, str(tmp_path / "ds")))
        assert_same_dataset(load_dataset(manifest), ds)
        with pytest.raises(DataError, match="need at least 10 samples to split, got 0"):
            load_split(manifest, 0, "test")

    @pytest.mark.parametrize("n", [0, 5, 119, 121, 10**15])
    def test_wrong_manifest_row_count_rejected(self, tmp_path, monkeypatch, n):
        """After the CSV pass, by both loaders: below 10 rows as the mismatch,
        not as too few rows to split, and 10**15 rows without allocating
        them (numpy would raise MemoryError)."""
        monkeypatch.setattr(data, "CSV_BLOCK_ROWS", 16, raising=False)
        manifest = as_version_1(write_dataset(mixed_dataset(), str(tmp_path / "ds")))
        with open(manifest, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["n"] = n
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for load in (load_dataset, lambda path: load_split(path, 7, "test")):
            with pytest.raises(DataError, match=rf"structured\.csv holds 120 rows, "
                                                rf"but manifest .*manifest\.json says n = {n}$"):
                load(manifest)

    # mixed_dataset's columns: n0, c0, flat, n1, c1, label, id; written in
    # blocks of 16 rows, each fault below lies in a different block.  Row 1
    # lies in seed 0's train part: load_split's val part raises its fault
    # too, as load_dataset does
    @pytest.mark.parametrize("edits,message", [
        ({(1, 0): "abc", (60, 5): "yes"}, r"csv:3: feature 'n0': not a finite number 'abc'"),
        ({(1, 0): "abc", (20, 5): "yes", (100, 6): "p100,x"},
         r"csv:3: feature 'n0': not a finite number 'abc'"),
        ({(1, 3): "abc", (43, 0): "nan"}, r"csv:3: feature 'n1': not a finite number 'abc'"),
        ({(1, 3): "abc", (40, 6): "p2"}, r"csv:3: feature 'n1': not a finite number 'abc'"),
        ({(1, 5): "2", (70, 5): "no"}, r"csv:3: label 2 outside 0\.\.1"),
    ], ids=["cell-then-label", "cell-label-then-width", "two-columns", "cell-then-id",
            "label-range-then-parse"])
    def test_errors_keep_their_whole_file_order(self, tmp_path, monkeypatch, edits, message):
        monkeypatch.setattr(data, "CSV_BLOCK_ROWS", 16, raising=False)
        manifest = as_version_1(write_dataset(mixed_dataset(), str(tmp_path / "ds")))
        edit_lines(tmp_path / "ds" / "structured.csv", edits)
        for load in (load_dataset, lambda path: load_split(path, 0, "val")):
            with pytest.raises(DataError, match=rf"structured\.{message}$"):
                load(manifest)

    # row 5 (line 7) lies in seed 0's test part
    @pytest.mark.parametrize("edits,message", [
        ({(5, 6): "p1,x", (5, 5): "yes"}, r"csv:7: wrong column count"),
        ({(5, 5): "yes", (5, 6): "p1"}, r"csv:7: bad label 'yes'"),
        ({(5, 5): "2", (5, 6): "p1"}, r"csv:7: label 2 outside 0\.\.1"),
        ({(5, 6): "p1", (5, 0): "abc"}, r"csv:7: duplicate id 'p1'"),
        ({(5, 3): "nan", (5, 0): "abc"}, r"csv:7: feature 'n0': not a finite number 'abc'"),
    ], ids=["width-then-label", "label-then-id", "label-range-then-id", "id-then-cell",
            "cells-left-to-right"])
    def test_faults_of_one_line_in_order(self, tmp_path, edits, message):
        manifest = as_version_1(write_dataset(mixed_dataset(), str(tmp_path / "ds")))
        edit_lines(tmp_path / "ds" / "structured.csv", edits)
        for load in (load_dataset, lambda path: load_split(path, 0, "test")):
            with pytest.raises(DataError, match=rf"structured\.{message}$"):
                load(manifest)

    def test_load_never_holds_every_rows_cell_strings(self, tmp_path, monkeypatch):
        """Peak traced memory of a load stays well below what the CSV's
        cell strings take as ``csv.reader`` rows: a load holds one row of
        them at a time, beside the parsed columns."""
        monkeypatch.setattr(data, "CSV_BLOCK_ROWS", 256, raising=False)
        ds = generate_synthetic(SyntheticConfig(n=8 * 256, d_struct=16, d_embed=0,
                                                informativeness=(0.5,), seed=3))
        manifest = as_version_1(write_dataset(ds, str(tmp_path / "ds")))

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def records():
            with open(tmp_path / "ds" / "structured.csv", newline="", encoding="utf-8") as fh:
                return list(csv.reader(fh))

        bound = 0.75 * peak(records)
        assert peak(lambda: load_dataset(manifest)) < bound
        for part in ("val", "test"):
            assert peak(lambda: load_split(manifest, 0, part)) < bound, part


# text that csv.writer quotes (a comma, a quote, CR, LF, CRLF) or keeps
# as it is (a leading space, non-ASCII)
QUOTABLE = ["a,b", 'say "hi"', "two\nlines", "cr\ronly", "crlf\r\n", " leading", "ünï©ødé €", "plain"]


def quotable_dataset(n=40, embeddings=True):
    """Ids and categoricals that need quoting, missing cells, and floats
    at the edges of ``repr``: -0.0, the smallest subnormal, 1e300."""
    rng = np.random.default_rng(5)
    num = rng.normal(size=n)
    num[rng.random(n) < 0.2] = np.nan
    num[:3] = [-0.0, 5e-324, 1e300]
    vectors = rng.normal(size=(n, 3))
    vectors[0] = [-0.0, 5e-324, 1e300]
    return Dataset(
        schema=(NUM, FeatureSpec('kind, "quoted"', "categorical")),
        ids=[f"{QUOTABLE[i % len(QUOTABLE)]}#{i}" for i in range(n)],
        columns=[num, np.array(QUOTABLE + [None], dtype=object)[rng.integers(0, 9, n)]],
        labels=np.arange(n) % 2,
        embeddings=vectors if embeddings else None,
    )


WRITE_CASES = {
    "quotable": lambda: quotable_dataset(),
    "three-blocks": lambda: quotable_dataset(n=2 * data.CSV_BLOCK_ROWS + 1),
    "zero-rows": lambda: Dataset(schema=(NUM, CAT), ids=[], columns=[[], []], labels=[],
                                 embeddings=np.zeros((0, 3))),
    "zero-features": lambda: Dataset(schema=(), ids=["a", "b,c"], columns=[], labels=[0, 1],
                                     embeddings=np.ones((2, 2))),
    "no-embeddings": lambda: quotable_dataset(embeddings=False),
    "zero-wide-embeddings": lambda: Dataset(schema=(NUM,), ids=["a", "b"], columns=[[1.0, None]],
                                            labels=[1, 0], embeddings=np.zeros((2, 0))),
}


class TestBlockwiseWrite:
    """``write_dataset`` formats the files in row blocks itself and writes
    the bytes of ``csv.writer`` and ``json.dumps``."""

    @pytest.mark.parametrize("case", list(WRITE_CASES))
    def test_bytes_equal_csv_writer_and_json_dumps(self, tmp_path, case):
        ds = WRITE_CASES[case]()
        write_dataset(ds, str(tmp_path / "change"))
        reference_write_data_files(ds, str(tmp_path / "reference"))
        for name in ("structured.csv", "embeddings.jsonl"):
            written, expected = tmp_path / "change" / name, tmp_path / "reference" / name
            assert written.exists() == expected.exists() == (
                name == "structured.csv" or ds.embeddings is not None), name
            if expected.exists():
                assert written.read_bytes() == expected.read_bytes(), name

    @pytest.mark.parametrize("case", ["quotable", "three-blocks", "no-embeddings",
                                      "zero-features", "zero-wide-embeddings"])
    def test_round_trips_bit_for_bit(self, tmp_path, case):
        ds = WRITE_CASES[case]()
        manifest = write_dataset(ds, str(tmp_path / "ds"))
        assert_same_dataset(load_dataset(manifest), ds)
        if ds.n >= 10:
            for part, expected in zip(SPLIT_NAMES, split(ds, seed=3)):
                assert_same_dataset(load_split(manifest, 3, part), expected)

    # NUL is left out: Python 3.10's csv.writer refuses it ("need to
    # escape"), where 3.11's writes it as it is, like _csv_cell
    @settings(max_examples=300, deadline=None)
    @given(st.text(st.one_of(st.sampled_from(',"\r\n '), st.characters(min_codepoint=1))))
    def test_quoting_matches_csv_writer(self, cell):
        out = io.StringIO()
        csv.writer(out).writerow([cell, "x"])
        assert data._csv_cell(cell) + ",x\r\n" == out.getvalue()


def outcome(load, manifest):
    """What ``load(manifest)`` returns, or the DataError it raises."""
    try:
        return load(manifest)
    except DataError as exc:
        return exc


# mixed_dataset(): numerical columns n0, flat, n1; categorical c0, c1
TAMPERED = {
    "flipped-byte": ("numerical", "file", lambda raw: raw[:-1] + bytes([raw[-1] ^ 1]),
                     r"numerical\.npy: sha256 differs from the one manifest .* records$"),
    "truncated": ("ids", "file", lambda raw: raw[:-4],
                  r"ids\.npy holds \d+ bytes, but manifest .* records \d+$"),
    "trailing-bytes": ("labels", "recorded", lambda raw: raw + bytes(8),
                       r"labels\.npy: not a \.npy array file \(the data of shape \(120,\) "
                       r"does not fill the file\)$"),
    "not-npy": ("categorical", "recorded", lambda raw: b"a,b\n",
                r"categorical\.npy: not a \.npy array file"),
    "labels-int32": ("labels", "array", lambda a: a.astype(np.int32),
                     r"labels\.npy: dtype <i4, need int64$"),
    "ids-bytes": ("ids", "array", lambda a: a.astype(bytes),
                  r"ids\.npy: dtype \|S4, need fixed-width unicode$"),
    "embeddings-float32": ("embeddings", "array", lambda a: a.astype(np.float32),
                           r"embeddings\.npy: dtype <f4, need float64$"),
    "numerical-big-endian": ("numerical", "array", lambda a: a.astype(">f8"),
                             r"numerical\.npy: dtype >f8, need float64$"),
    "numerical-one-column-short": ("numerical", "array", lambda a: a[:, :2],
                                   r"numerical\.npy: shape \(120, 2\), need \(n, 3\)$"),
    "categorical-flat": ("categorical", "array", lambda a: a[:, 0],
                         r"categorical\.npy: shape \(120,\), need \(n, 2\)$"),
    "embeddings-row-short": ("embeddings", "array", lambda a: a[:-1],
                             r"embeddings\.npy holds 119 rows, but manifest .* says n = 120$"),
    "inf": ("numerical", "array", set_item((7, 1), np.inf),
            r"numerical\.npy: row 7: feature 'flat': infinite value$"),
    "-inf": ("numerical", "array", set_item((9, 2), -np.inf),
             r"numerical\.npy: row 9: feature 'n1': infinite value$"),
    "nan-embedding": ("embeddings", "array", set_item((11, 2), np.nan),
                      r"embeddings\.npy: non-finite embedding value for id 'p11'$"),
    "duplicate-id": ("ids", "array", set_item(5, "p2"), r"ids\.npy: duplicate id 'p2'$"),
    "label-2": ("labels", "array", set_item(4, 2),
                r"labels\.npy: row 4: label 2 outside 0\.\.1$"),
    "label-negative": ("labels", "array", set_item(6, -1),
                       r"labels\.npy: row 6: label -1 outside 0\.\.1$"),
}


class TestBinaryCopy:
    """A version-2 manifest loads from the ``.npy`` files alone, each
    checked against the manifest and as whole arrays."""

    @pytest.mark.parametrize("case", list(WRITE_CASES))
    def test_loads_equal_the_text_loads(self, tmp_path, case):
        """On the same written files, each load of the binary copy returns
        the text load's dataset bit for bit, or raises its message.  Only
        the binary copy keeps the embedding width of zero rows."""
        ds = WRITE_CASES[case]()
        manifest = write_dataset(ds, str(tmp_path / "ds"))
        loads = [load_dataset] + [lambda path, part=part: load_split(path, 3, part)
                                  for part in SPLIT_NAMES]
        binary = [outcome(load, manifest) for load in loads]
        as_version_1(manifest)
        text = [outcome(load, manifest) for load in loads]
        if case == "zero-rows":
            assert all(str(t).endswith("need one equal-length number list per sample (no rows)")
                       for t in text)
            assert_same_dataset(binary[0], ds)
            assert all(str(b) == "need at least 10 samples to split, got 0" for b in binary[1:])
            return
        for b, t in zip(binary, text):
            if isinstance(t, DataError):
                assert str(b) == str(t) == f"need at least 10 samples to split, got {ds.n}"
            else:
                assert_same_dataset(b, t)
        if ds.n >= 10:
            assert all(isinstance(t, Dataset) for t in text)

    def test_reads_only_the_binary_files(self, tmp_path):
        ds = mixed_dataset()
        manifest = write_dataset(ds, str(tmp_path / "ds"))
        (tmp_path / "ds" / "structured.csv").unlink()
        (tmp_path / "ds" / "embeddings.jsonl").unlink()
        assert_same_dataset(load_dataset(manifest), ds)
        for part, expected in zip(SPLIT_NAMES, split(ds, seed=5)):
            assert_same_dataset(load_split(manifest, 5, part), expected)

    def test_manifest_records_each_file(self, tmp_path):
        manifest = write_dataset(mixed_dataset(), str(tmp_path / "ds"))
        doc = json.loads((tmp_path / "ds" / "manifest.json").read_text(encoding="utf-8"))
        assert doc["format_version"] == data.MANIFEST_VERSION == 2
        assert sorted(doc["binary"]) == sorted(data.BINARY_KEYS)
        layout = {"labels": ("<i8", (120,)), "ids": ("<U4", (120,)),
                  "numerical": ("<f8", (120, 3)), "categorical": ("<U1", (120, 2)),
                  "embeddings": ("<f8", (120, 3))}
        for key, entry in doc["binary"].items():
            raw = (tmp_path / "ds" / f"{key}.npy").read_bytes()
            assert entry == {"file": f"{key}.npy", "size": len(raw),
                             "sha256": hashlib.sha256(raw).hexdigest()}
            array = np.load(tmp_path / "ds" / entry["file"], allow_pickle=False)
            assert (array.dtype.str, array.shape) == layout[key], key
        write_dataset(mixed_dataset(embeddings=False), str(tmp_path / "plain"))
        plain = json.loads((tmp_path / "plain" / "manifest.json").read_text(encoding="utf-8"))
        assert sorted(plain["binary"]) == sorted(set(data.BINARY_KEYS) - {"embeddings"})
        assert not (tmp_path / "plain" / "embeddings.npy").exists()

    @pytest.mark.parametrize("case", list(TAMPERED))
    def test_tampered_file_is_named(self, tmp_path, case):
        key, how, edit, message = TAMPERED[case]
        manifest = write_dataset(mixed_dataset(), str(tmp_path / "ds"))
        tamper(manifest, key, how, edit)
        for load in (load_dataset, lambda path: load_split(path, 0, "val")):
            with pytest.raises(DataError, match=message):
                load(manifest)

    def test_manifest_row_count_mismatch(self, tmp_path):
        manifest = write_dataset(mixed_dataset(), str(tmp_path / "ds"))
        doc = json.loads((tmp_path / "ds" / "manifest.json").read_text(encoding="utf-8"))
        for n in (0, 119, 121, 10**15):
            data.write_json(manifest, dict(doc, n=n))
            for load in (load_dataset, lambda path: load_split(path, 0, "test")):
                with pytest.raises(DataError, match=rf"labels\.npy holds 120 rows, but manifest "
                                                    rf".*manifest\.json says n = {n}$"):
                    load(manifest)

    @pytest.mark.parametrize("version", [(1, 0), (2, 0)])
    def test_read_npy_returns_the_read_buffer(self, tmp_path, version):
        """Each array comes back with its dtype, memory order and bits, as
        a writable view of the buffer the file was read into."""
        rng = np.random.default_rng(4)
        arrays = {"c": rng.normal(size=(5, 3)), "f": np.asfortranarray(rng.normal(size=(5, 3))),
                  "int": np.arange(7, dtype=np.int64), "unicode": np.array([["ab", ""], ["c", "d"]]),
                  "empty": np.zeros((0, 4))}
        for name, array in arrays.items():
            path = tmp_path / f"{name}.npy"
            with open(path, "wb") as fh:
                np.lib.format.write_array(fh, array, version=version)
            raw = path.read_bytes()
            got = data._read_npy(str(path), len(raw), hashlib.sha256(raw).hexdigest(), "m.json")
            assert (got.dtype, got.shape) == (array.dtype, array.shape), name
            assert got.flags.f_contiguous == array.flags.f_contiguous, name
            assert got.flags.c_contiguous == array.flags.c_contiguous, name
            assert got.tobytes(order="A") == array.tobytes(order="A"), name
            assert got.flags.writeable and not got.flags.owndata, name

    def test_version_1_manifest_keeps_its_bytes(self, tmp_path):
        """Rewritten as version 1, a written manifest has the bytes, and so
        the ``dataset_id``, that the version-1 writer gave it."""
        cfg = SyntheticConfig(n=60, d_struct=3, d_embed=2, seed=31)
        manifest = as_version_1(write_dataset(generate_synthetic(cfg), str(tmp_path / "ds")))
        assert manifest_hash(manifest) == (
            "b82a8a9fb2f88c03abe23d5c0a5388c42ae8875a29f7f2a5cf59b23d2d7b4a03")


def record(sample_id, embedding="[1.0,2.0,3.0]"):
    return '{"embedding":%s,"id":%s}' % (embedding, json.dumps(sample_id))


def edit_records(path, edits, blanks=0):
    """Rewrite a JSONL file with ``edits`` = {line number: new line}, then
    put ``blanks`` blank lines before its first line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for line_no, text in edits.items():
        lines[line_no - 1] = text
    path.write_text("\n" * blanks + "\n".join(lines) + "\n", encoding="utf-8")


class TestBlockwiseJsonlRead:
    """The embeddings JSONL, written in blocks of ``CSV_BLOCK_ROWS`` lines,
    is read line by line: loads return, and fail with, what a whole-file
    read would, in either loader.  Written in 16-line blocks,
    mixed_dataset's 120 records (line i holds id p{i-1}) fill 8."""

    @pytest.fixture
    def written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "CSV_BLOCK_ROWS", 16, raising=False)
        ds = mixed_dataset()
        return (ds, as_version_1(write_dataset(ds, str(tmp_path / "ds"))),
                tmp_path / "ds" / "embeddings.jsonl")

    @staticmethod
    def assert_rejected(manifest, message):
        for load in (load_dataset, lambda path: load_split(path, 0, "val")):
            with pytest.raises(DataError, match=rf"embeddings\.jsonl{message}"):
                load(manifest)

    def test_bad_record_after_blank_lines_names_its_line(self, written):
        _, manifest, path = written
        # five blank lines move file line 41 (block 3) to 46
        edit_records(path, {41: '{"embedding":[1.0,2.0,3.0],"id":"p40"'}, blanks=5)
        self.assert_rejected(manifest, r":46: bad record$")

    @pytest.mark.parametrize("line_no,sample_id", [(50, "p2"), (120, "p0")])
    def test_duplicate_id_across_blocks(self, written, line_no, sample_id):
        _, manifest, path = written
        edit_records(path, {line_no: record(sample_id)})
        self.assert_rejected(manifest, rf":{line_no}: duplicate id '{sample_id}'$")

    def test_duplicate_id_the_csv_lacks(self, written):
        _, manifest, path = written
        edit_records(path, {5: record("extra"), 70: record("extra", "[1.0]")})
        self.assert_rejected(manifest, r":70: duplicate id 'extra'$")

    def test_shuffled_lines_load_the_same_bits(self, written):
        ds, manifest, path = written
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        order = np.random.default_rng(1).permutation(len(lines))
        # blank lines between records, and whitespace around every other one
        path.write_text("\n  \n".join(lines[i] if i % 2 else f" {lines[i][:-1]}\t\n"
                                       for i in order), encoding="utf-8")
        assert_same_dataset(load_dataset(manifest), ds)
        for part, expected in zip(SPLIT_NAMES, split(ds, seed=0)):
            assert_same_dataset(load_split(manifest, 0, part), expected)

    def test_records_that_parse_only_as_one_block_are_bad(self, written):
        """Joined into one array, these two lines would decode as two
        records (p1 and p2, padded); each on its own is not a JSON value."""
        _, manifest, path = written
        edit_records(path, {2: record("p1") + "," + record("p2")[:-1] + ',"pad":[{}',
                            3: "{}]}"})
        self.assert_rejected(manifest, r":2: bad record$")

    # the first faulty line wins, whatever the kinds of the faults: line 2's
    # shape or value fault comes before a bad record, a duplicate or a
    # shape fault in later blocks, and before the file's missing id
    @pytest.mark.parametrize("edits,message", [
        ({2: record("p1", "[1.0]"), 40: "[]"}, r":2: need one equal-length number list "
                                               r"per sample \(read as shape \(1,\), not \(3,\)\)$"),
        ({2: record("p1", "[1.0]"), 5: "[]"}, r":2: need one equal-length"),
        ({2: record("p1", "[1.0]"), 40: record("p3")}, r":2: need one equal-length"),
        ({2: record("p1", "[1.0]"), 30: record("zz"), 99: record("zz")},
         r":2: need one equal-length"),
        ({2: record("p1", "[1.0]"), 90: record("other")}, r":2: need one equal-length"),
        ({2: record("p1", "[1.0,null,3.0]"), 100: record("p99", "[[1.0,2.0,3.0]]")},
         r": non-finite or null embedding value for id 'p1'$"),
        ({2: record("p1", "[1.0,NaN,3.0]"), 100: record("p99", "[1.0,2.0,Infinity]")},
         r": non-finite or null embedding value for id 'p1'$"),
    ], ids=["shape-then-bad-record", "shape-then-bad-record-in-its-block", "shape-then-duplicate",
            "shape-then-foreign-duplicate", "shape-then-missing-id", "null-then-shape",
            "two-non-finite"])
    def test_faults_keep_their_whole_file_order(self, written, edits, message):
        _, manifest, path = written
        if 90 in edits:
            edits[30] = record("p89")  # p89's record moves; p29 has none
        edit_records(path, edits)
        self.assert_rejected(manifest, message)

    @pytest.mark.parametrize("text,message", [
        ('{"id":"p1"}', r":5: bad record$"),
        (record("p1", "[1.0]"), r":5: duplicate id 'p1'$"),
        (record("p4", "[1.0,null]"), r":5: need one equal-length number list per sample "
                                     r"\(read as shape \(2,\), not \(3,\)\)$"),
    ], ids=["bad-record-then-duplicate", "duplicate-then-shape", "shape-then-null"])
    def test_faults_of_one_line_in_order(self, written, text, message):
        _, manifest, path = written
        edit_records(path, {5: text})
        self.assert_rejected(manifest, message)

    def test_a_whole_block_of_another_width(self, written):
        # block 2 alone converts to a (16, 1) array, which would broadcast
        _, manifest, path = written
        edit_records(path, {i: record(f"p{i - 1}", "[1.0]") for i in range(17, 33)})
        self.assert_rejected(manifest, r":17: need one equal-length number list per sample "
                                       r"\(read as shape \(1,\), not \(3,\)\)$")

    def test_integer_too_large_for_a_float(self, written):
        # numpy raises OverflowError for it, not ValueError
        _, manifest, path = written
        edit_records(path, {60: record("p59", "[1.0,%s,3.0]" % ("9" * 400))})
        self.assert_rejected(
            manifest, r":60: need one equal-length number list per sample \(int too large .*\)$")

    def test_integer_of_too_many_digits_is_a_bad_record(self, written):
        # json.loads raises a ValueError that is not a JSONDecodeError for it
        _, manifest, path = written
        edit_records(path, {60: record("p59", "[1.0,%s,3.0]" % ("9" * 5000))})
        self.assert_rejected(manifest, r":60: bad record$")
        with pytest.raises(DataError, match=r"embeddings\.jsonl:60: bad record$"):
            reference_load(manifest)

    def test_deeply_nested_record_is_a_bad_record(self, written):
        # json.loads raises a RecursionError, which is not a ValueError
        _, manifest, path = written
        edit_records(path, {60: "[" * 100_000 + "]" * 100_000})
        self.assert_rejected(manifest, r":60: bad record$")
        with pytest.raises(DataError, match=r"embeddings\.jsonl:60: bad record$"):
            reference_load(manifest)

    def test_embeddings_never_all_python_floats(self, tmp_path, monkeypatch):
        """Peak traced memory of reading the embeddings stays well below what
        every record's vector takes as a list of Python floats: a read holds
        one record's at a time, beside the (n, d) array it fills."""
        monkeypatch.setattr(data, "CSV_BLOCK_ROWS", 256, raising=False)
        ds = generate_synthetic(SyntheticConfig(n=16 * 256, d_struct=1, d_embed=32, seed=3))
        write_dataset(ds, str(tmp_path / "ds"))
        path = str(tmp_path / "ds" / "embeddings.jsonl")

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def vectors():
            with open(path, encoding="utf-8") as fh:
                return [json.loads(line)["embedding"] for line in fh]

        row_of = {sample_id: row for row, sample_id in enumerate(ds.ids)}
        assert peak(lambda: data._load_embeddings(path, row_of)) < 0.75 * peak(vectors)


def _csv_fault(rng, rows, n):
    """Put one fault in a random data row of ``rows`` (split CSV lines);
    mixed_dataset's numerical columns are 0, 2 and 3."""
    row = rows[int(rng.integers(n)) + 1]
    kind = rng.integers(5)
    if kind == 0:
        row[:] = row[:-1] if rng.random() < 0.5 else row + ["x"]
    elif kind == 1:
        row[-2] = str(rng.choice(["yes", "1.5", "", "2", "-1", "9" * 20, " 1", "+1", "0_1"]))
    elif kind == 2:
        row[-1] = f"p{rng.integers(n)}"  # a repeat unless it is the row's own id
    else:
        row[int(rng.choice([0, 2, 3]))] = str(rng.choice(["abc", "nan", "inf", "-inf"]))


def _jsonl_fault(rng, lines, n):
    """Put one fault in a record of ``lines`` (JSONL lines of 3-wide vectors)."""
    i = int(rng.choice([j for j, line in enumerate(lines)
                        if '"embedding":' in line and '"id":' in line]))
    sample_id = json.loads(lines[i])["id"]
    kind = rng.integers(6)
    if kind == 0:
        lines[i] = str(rng.choice(["[]", "{", "null", '{"id":"p0"}', '{"embedding":[]}']))
    elif kind == 1:
        lines[i] = record(f"p{rng.integers(n)}")
    elif kind == 2:
        lines[i] = lines[int(rng.integers(len(lines)))] = record("foreign")
    elif kind == 3:
        lines[i] = record(sample_id, str(rng.choice(["[1.0,2.0]", "[1,2,3,4]", "1.5",
                                                    "[[1.0,2.0,3.0]]", '[1.0,"a",3.0]',
                                                    '[1.0,"2.5",3.0]', "[true,2.0,3.0]"])))
    elif kind == 4:
        value = rng.choice(["null", "NaN", "Infinity", "-Infinity"])
        lines[i] = record(sample_id, f"[1.0,{value},3.0]")
    else:
        lines[i] = " "  # that id's record goes missing


@pytest.mark.parametrize("seed", range(6))
def test_loads_match_the_line_by_line_reference(tmp_path, monkeypatch, seed):
    """Random small manifests with 0, 1 or 2 faults, written in 16-row
    blocks: each load returns what ``helpers.reference_load`` returns, bit
    for bit, or raises its message; a valid file loads back the dataset
    written."""
    monkeypatch.setattr(data, "CSV_BLOCK_ROWS", 16, raising=False)
    rng = np.random.default_rng(seed)
    for case in range(40):
        n = int(rng.integers(10, 60))
        ds = mixed_dataset(n=n, seed=case)
        manifest = as_version_1(write_dataset(ds, str(tmp_path / f"{seed}-{case}")))
        csv_path, jsonl_path = (tmp_path / f"{seed}-{case}" / name
                                for name in ("structured.csv", "embeddings.jsonl"))
        rows = [line.split(",") for line in csv_path.read_text().splitlines()]
        lines = jsonl_path.read_text().splitlines()
        if rng.random() < 0.5:
            rng.shuffle(lines)
        faults = int(rng.integers(3))
        for _ in range(faults):
            kind = rng.integers(5)
            if kind < 2:
                _csv_fault(rng, rows, n)
            elif kind < 4:
                _jsonl_fault(rng, lines, n)
            else:
                with open(manifest, encoding="utf-8") as fh:
                    doc = json.load(fh)
                doc["n"] = int(rng.choice([n - 1, n + 1, n + 7, 5, 0]))
                with open(manifest, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
        csv_path.write_text("\n".join(map(",".join, rows)) + "\n")
        jsonl_path.write_text("\n".join(lines) + "\n" * int(rng.integers(1, 3)))

        split_seed, part = int(rng.integers(4)), str(rng.choice(SPLIT_NAMES))
        for load, args, written in (
                (load_dataset, (), ds),
                (load_split, (split_seed, part),
                 split(ds, split_seed)[SPLIT_NAMES.index(part)])):
            where = f"case {seed}-{case}, {faults} faults, {load.__name__}"
            try:
                expected = reference_load(manifest, *args)
            except DataError as exc:
                with pytest.raises(DataError) as raised:
                    load(manifest, *args)
                # the reference gives no reason for a shape fault
                assert re.sub(r" \(.*\)$", "", str(raised.value)) == str(exc), where
                continue
            assert_same_dataset(load(manifest, *args), expected)
            if not faults:
                assert_same_dataset(expected, written)
