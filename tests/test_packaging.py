"""Packaging metadata and the public API point at code that exists."""

import importlib
import pkgutil
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
