"""Caps are set in one scope, `with cap.limit(n):`, no function takes a
cap as a parameter, and the rank cap refuses a ring file before its
labels and its table."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fusionwitt
from fusionwitt import corpus
from fusionwitt.caps import ELEMENT_CAP, ORDER_CAP, RANK_CAP
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


# runs cli.main on its arguments and prints the exit status and the
# peak RSS in kB of the process image since exec (getrusage's ru_maxrss
# would also count the forking test process)
PEAK_RSS = """
import re, sys
from fusionwitt.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status", encoding="utf-8") as fh:
    print(code, re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the peak RSS from /proc")
@pytest.mark.parametrize("verb", ["validate", "analyze"])
def test_a_ring_over_the_rank_cap_is_refused_before_its_labels(tmp_path, verb):
    # the labels and dual lines are far too short for rank 10**6, so a
    # parse that read them would refuse them instead; the dense table
    # would hold 10**18 entries
    path = tmp_path / "huge.fr"
    path.write_text("rank 1000000\nlabels a\ndual 0\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(fusionwitt.__file__).resolve().parent.parent)}
    env.pop(RANK_CAP.env, None)
    done = subprocess.run([sys.executable, "-c", PEAK_RSS, verb, str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    code, peak_kb = map(int, done.stdout.split())
    assert code == 1
    assert done.stderr == ("ring of rank 1000000 exceeds the rank cap 64; "
                           "raise it with FUSIONWITT_RANK_CAP or --rank-cap\n")
    assert peak_kb < 50 * 1024


def test_the_rank_cap_admits_a_ring_at_its_limit(capsys, monkeypatch):
    monkeypatch.delenv(RANK_CAP.env, raising=False)
    path = corpus.path("d_s3.fr")
    assert main(["analyze", path, "--rank-cap", "7", "--format", "machine"]) == 1
    assert "ring of rank 8 exceeds the rank cap 7;" in capsys.readouterr().err
    assert main(["analyze", path, "--rank-cap", "8", "--format", "machine"]) == 0
    assert "rank=8" in capsys.readouterr().out
