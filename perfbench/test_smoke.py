"""Smoke test of the benchmark driver on tiny sizes of every workload.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import evidfuse.model  # noqa: E402
import harness  # noqa: E402
from evidfuse.data import bayes_optimal_auroc, generate_synthetic  # noqa: E402

TINY = {
    "train-small-batch": dict(n=300, epochs=1),
    "train-many-sources": dict(n=400, prototypes=10, batch_size=64, epochs=1),
    "ingest-eval": dict(n=600, prototypes=10, setup_repeats=1),
}


def tiny(name):
    return dataclasses.replace(harness.WORKLOADS[name], auroc_floor=0.6, **TINY[name])


def metric_names(section):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[section]]


def run_and_print(name, tmp_path, capsys, trace=0):
    result, trace_doc, notes = harness.run_workload(tiny(name), seed=3, seconds=0,
                                                    trace=trace, work_root=str(tmp_path))
    harness.print_result(name, result, notes)
    return result, trace_doc, capsys.readouterr().out


@pytest.mark.parametrize("name", list(TINY))
def test_auroc_floor_is_below_bayes_optimal(name):
    workload = harness.WORKLOADS[name]
    generator = generate_synthetic(dataclasses.replace(workload.synthetic(0), n=10)).generator
    assert workload.auroc_floor < bayes_optimal_auroc(generator)


def test_workloads_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = [w["name"] for w in json.load(fh)["workloads"]]
    assert declared == list(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_printed(name, trace, tmp_path, capsys):
    originals = (evidfuse.model.evidence_batch, evidfuse.model.Tape.backward)
    result, trace_doc, printed = run_and_print(name, tmp_path, capsys, trace)

    assert result["correct"], printed
    assert json.loads(printed.strip().splitlines()[-1]) == result
    for metric in metric_names("per_layer" if trace else "end_to_end"):
        assert f"  {metric} = " in printed
        assert metric in result["metrics"]
    assert "  error_rate = 0 ratio" in printed
    assert (trace_doc is not None) == bool(trace)
    # wrappers are gone and the run directory is cleaned up
    assert (evidfuse.model.evidence_batch, evidfuse.model.Tape.backward) == originals
    assert list(tmp_path.iterdir()) == []


def _raise(*args, **kwargs):
    raise RuntimeError("forced failure")


def _wrong_explanations(fitted, inputs):
    return [SimpleNamespace(probs=np.zeros(2))] * len(inputs[0])


@pytest.mark.parametrize("attribute, replacement", [
    ("evaluate_checkpoint", _raise),     # an operation fails
    ("predict_batch", _wrong_explanations),  # a correctness check fails
])
def test_forced_failure_shows_in_error_rate(attribute, replacement, tmp_path, capsys,
                                            monkeypatch):
    owner = harness.experiment if attribute == "evaluate_checkpoint" else harness.model
    monkeypatch.setattr(owner, attribute, replacement)
    result, _, printed = run_and_print("ingest-eval", tmp_path, capsys)

    assert not result["correct"]
    assert result["failed"] >= 1
    rate = result["failed"] / result["attempted"]
    assert f"  error_rate = {rate:.6g} ratio" in printed


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "train-small-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
