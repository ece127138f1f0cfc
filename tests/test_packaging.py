"""Packaging metadata and the public API point at code that exists, and
the pytest settings in ``pyproject.toml`` report a failing test as one."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import evidfuse

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_public_names_resolve():
    for name in evidfuse.__all__:
        assert hasattr(evidfuse, name), name


def test_every_module_imports():
    names = [info.name for info in pkgutil.iter_modules(evidfuse.__path__)]
    assert names
    for name in names:
        importlib.import_module(f"evidfuse.{name}")


PROBE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_test_does_not_end_the_session(tmp_path):
    """Under the project's warning filters a failing hypothesis test is
    one failure: reporting it imports libcst, whose deprecation warning
    must not become an INTERNALERROR that skips the tests after it."""
    pytest.importorskip("hypothesis")
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in proc.stdout, out
