"""Smoke runs of the scripts under scripts/ on tiny inputs."""

import contextlib
import hashlib
import importlib.util
import io
import re
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


@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_scan_bounds_refuses_an_oracle_limit_below_one(capsys, value):
    # the scan it compares against needs a limit of at least 2
    with pytest.raises(SystemExit) as exited:
        load("scan_bounds").main(["--oracle-limit", value])
    assert exited.value.code == 2
    assert "--oracle-limit" in capsys.readouterr().err


def test_pool_outputs_digests_each_jobs_stdout(capsys, monkeypatch, tmp_path):
    module = load("pool_outputs")
    make_pool = module.workloads.make_pool
    monkeypatch.setattr(module.workloads, "make_pool", lambda *args: make_pool(*args)[:3])
    assert module.main(["--workload", "witt_closure", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [[f"{n:03d}", "witt-subgroup", "status=0"] for n in range(3)]
    assert all(re.fullmatch(r"sha256=[0-9a-f]{64}", line.split()[3]) for line in lines)
    # the first digest is that of the job's whole stdout, run directly
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert module.cli.main(module.run.write_inputs(make_pool("witt_closure", 1)[:1], tmp_path / "inputs")[0]) == 0
    assert lines[0].split()[3] == "sha256=" + hashlib.sha256(out.getvalue().encode()).hexdigest()
