"""Caps are set in one scope, `with cap.limit(n):`, and no function takes
a cap as a parameter."""

import importlib
import inspect
import pkgutil

import pytest

import fusionwitt
from fusionwitt import corpus
from fusionwitt.caps import ELEMENT_CAP, ORDER_CAP
from fusionwitt.cli import main
from fusionwitt.errors import CapExceededError


def package_functions():
    """(qualified name, function) for every function and method defined
    in a fusionwitt module."""
    for info in pkgutil.iter_modules(fusionwitt.__path__):
        module = importlib.import_module(f"fusionwitt.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in inspect.getmembers(obj, lambda m: inspect.isfunction(m) or inspect.ismethod(m)):
                    yield f"{module.__name__}.{name}.{attr}", member


def test_no_function_takes_a_cap_parameter():
    found = list(package_functions())
    assert any(name == "fusionwitt.caps.Cap.check" for name, _ in found)
    offenders = [name for name, func in found if {"cap", "element_budget"} & set(inspect.signature(func).parameters)]
    assert offenders == []


def test_check_reads_the_innermost_scope(monkeypatch):
    monkeypatch.delenv(ORDER_CAP.env, raising=False)
    ORDER_CAP.check(ORDER_CAP.default, "class order")
    with ORDER_CAP.limit(3):
        ORDER_CAP.check(3, "class order")
        with pytest.raises(CapExceededError, match="class order exceeds the order cap 3;"):
            ORDER_CAP.check(4, "class order")
        with ORDER_CAP.limit(None):
            with pytest.raises(CapExceededError, match="order cap 3;"):
                ORDER_CAP.check(4, "class order")
        with ORDER_CAP.limit(5):
            ORDER_CAP.check(5, "class order")
        with pytest.raises(CapExceededError, match="order cap 3;"):
            ORDER_CAP.check(4, "class order")
    ORDER_CAP.check(ORDER_CAP.default, "class order")


def test_scope_outranks_the_variable_read_at_the_check(monkeypatch):
    with ELEMENT_CAP.limit(8):
        monkeypatch.setenv(ELEMENT_CAP.env, "4")
        ELEMENT_CAP.check(8, "group of order 8")
    with pytest.raises(CapExceededError, match="element cap 4;"):
        ELEMENT_CAP.check(8, "group of order 8")


def test_scope_is_reset_when_its_block_raises(monkeypatch):
    monkeypatch.delenv(ORDER_CAP.env, raising=False)
    with pytest.raises(RuntimeError):
        with ORDER_CAP.limit(3):
            raise RuntimeError("inside the scope")
    ORDER_CAP.check(ORDER_CAP.default, "class order")


def test_cli_runs_do_not_leak_caps(capsys, monkeypatch):
    monkeypatch.delenv(ELEMENT_CAP.env, raising=False)
    path = corpus.path("semion.mg")
    assert main(["witt-order", path, "--element-cap", "3"]) == 1
    assert "exceeds the element cap 3" in capsys.readouterr().err
    assert main(["witt-order", path, "--format", "machine"]) == 0
    assert "witt_order=8" in capsys.readouterr().out
    ELEMENT_CAP.check(ELEMENT_CAP.default, "group")
