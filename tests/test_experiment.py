"""Experiment driver: runs, artifacts and checkpoint re-evaluation."""

import json

import numpy as np
import pytest

from evidfuse.config import RunConfig
from evidfuse.data import Dataset, FeatureSpec, SyntheticConfig, write_dataset
from evidfuse.errors import DataError
from evidfuse.experiment import evaluate_checkpoint, run_experiment


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


def tiny_run(tmp_path, seed=3):
    run_experiment(tiny_config(tmp_path, seeds=(seed,)))
    return tmp_path / "tiny" / f"seed_{seed}"


class TestGoldenRun:
    def test_artifacts_byte_identical_across_output_dirs(self, tmp_path):
        """Only config.json's unhashed output_dir may tell two runs apart."""
        run_dirs = []
        for name in ("a", "b"):
            run_experiment(tiny_config(tmp_path / name, seeds=(0, 1)))
            run_dirs.append(tmp_path / name / "tiny")
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


class TestBinaryOnly:
    def test_multiclass_manifest_rejected_before_training(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 60
        dataset = Dataset(
            schema=(FeatureSpec("a", "numerical"), FeatureSpec("b", "numerical")),
            ids=[f"s{i}" for i in range(n)],
            rows=rng.normal(size=(n, 2)).tolist(),
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
