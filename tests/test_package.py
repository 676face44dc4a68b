"""The package namespace: every exported name, loaded on first use."""

from importlib import import_module
from pathlib import Path

import pytest

import boolelab
from helpers import modules_after

SUBMODULES = {p.stem for p in Path(boolelab.__file__).parent.glob("[a-z]*.py")}


def loaded_after(code: str) -> set[str]:
    return modules_after(code) & SUBMODULES


def test_every_export_has_one_home():
    assert len(set(boolelab.__all__)) == len(boolelab.__all__)
    assert set(boolelab._HOME) == set(boolelab.__all__)


def test_every_export_is_its_home_modules_object():
    for name in boolelab.__all__:
        home = import_module(f"boolelab.{boolelab._HOME[name]}")
        assert getattr(boolelab, name) is getattr(home, name), name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from boolelab import *", namespace)
    for name in boolelab.__all__:
        assert namespace[name] is getattr(boolelab, name)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        boolelab.nonexistent
    with pytest.raises(ImportError):
        exec("from boolelab import nonexistent", {})


def test_a_module_name_loads_that_module(monkeypatch):
    monkeypatch.delattr(boolelab, "models", raising=False)
    assert "models" not in vars(boolelab)
    assert boolelab.models is import_module("boolelab.models")


def test_dir_lists_every_export():
    assert set(boolelab.__all__) <= set(dir(boolelab))


def test_import_loads_no_submodule():
    assert loaded_after("import boolelab") == set()


def test_the_cli_loads_only_errors_before_a_command_runs():
    assert loaded_after("import boolelab.cli") == {"cli", "errors"}


def test_problem_files_load_without_the_symbolic_layers():
    assert loaded_after("import boolelab.problems") == {"errors", "horn", "problems", "terms"}


def test_first_use_loads_only_the_home_module_and_its_imports():
    assert loaded_after("import boolelab\nboolelab.normalize") == {
        "errors",
        "polynomial",
        "terms",
    }
    assert loaded_after("import boolelab\nboolelab.polynomial.expand") == {
        "errors",
        "polynomial",
        "terms",
    }
    assert loaded_after("from boolelab import parse, pretty") == {"terms"}
