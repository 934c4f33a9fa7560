"""Smoke runs of the scripts under scripts/ on tiny inputs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name,argv,expect",
    [
        ("witt_tables", ["--primes", "3", "--no-table"], "subgroup order 4"),
        ("scan_bounds", ["--oracle-limit", "200"], "agree everywhere"),
        ("certify_dims", ["ising.fr"], "sigma"),
    ],
)
def test_script_main_exits_zero(capsys, name, argv, expect):
    assert load(name).main(argv) == 0
    assert expect in capsys.readouterr().out


@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_witt_tables_refuses_a_closure_cap_below_one(capsys, value):
    with pytest.raises(SystemExit) as exited:
        load("witt_tables").main(["--primes", "3", "--closure-cap", value])
    assert exited.value.code == 2
    assert "--closure-cap" in capsys.readouterr().err
