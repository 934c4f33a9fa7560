"""fusionwitt loads each layer on first use, and keeps every layer in
sys.modules from the moment the package is imported.

This test session has loaded every layer already, so each check of what
a verb loads runs in a fresh interpreter.  A layer that is registered
but not yet loaded is a lazy module: its type is not types.ModuleType
until its body runs, and reading the type does not run it.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fusionwitt
from fusionwitt import corpus, metric_group

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"

# runs `cli.main(argv)` when argv is given, then prints the status and
# which fusionwitt modules are registered and which are still unloaded
PROBE = """
import contextlib, io, json, sys, types
from fusionwitt import cli
status = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(sys.argv[1:])
modules = {name: m for name, m in sys.modules.items() if name.startswith("fusionwitt.")}
print(json.dumps({"status": status, "registered": sorted(modules),
                  "unloaded": sorted(name.partition(".")[2] for name, m in modules.items()
                                     if type(m) is not types.ModuleType)}))
"""
WITT_SIDE = {"metric_group", "witt", "snf", "cyclotomic"}


def run_fresh(*argv: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(fusionwitt.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, timeout=60,
                         env=env, check=True)
    return json.loads(run.stdout)


def tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_importing_cli_registers_every_traced_layer():
    # bench/tracer.py reads sys.modules["fusionwitt.<layer>"] for each layer it traces
    registered = set(run_fresh()["registered"])
    assert {f"fusionwitt.{module}" for _, module, _ in tracer_targets()} <= registered


@pytest.mark.parametrize("argv", [["classify", "1764"], ["scan", "2000"]], ids=["classify", "scan"])
def test_dimension_verbs_leave_the_ring_and_witt_layers_unloaded(argv):
    probe = run_fresh(*argv)
    assert probe["status"] == 0
    assert {"fpdim", "fusion_ring"} | WITT_SIDE <= set(probe["unloaded"])


def test_analyze_leaves_the_witt_layers_unloaded():
    probe = run_fresh("analyze", corpus.path("ising.fr"))
    assert probe["status"] == 0
    assert WITT_SIDE <= set(probe["unloaded"])
    assert not {"fpdim", "fusion_ring", "classifier"} & set(probe["unloaded"])


def test_witt_verbs_leave_the_ring_layers_unloaded():
    probe = run_fresh("witt-class", corpus.path("semion.mg"))
    assert probe["status"] == 0
    assert {"fusion_ring", "fpdim", "classifier"} <= set(probe["unloaded"])


def test_every_export_is_the_object_in_its_layer():
    for name in fusionwitt.__all__:
        value = getattr(fusionwitt, name)
        layer = sys.modules[value.__module__]
        assert layer.__name__.startswith("fusionwitt.")
        assert getattr(layer, "metric_group" if name == "make_metric" else name) is value, name
    assert fusionwitt.make_metric is metric_group.metric_group
    assert set(fusionwitt.__all__) <= set(dir(fusionwitt))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from fusionwitt import *", namespace)
    assert {name: namespace[name] for name in fusionwitt.__all__} == {
        name: getattr(fusionwitt, name) for name in fusionwitt.__all__
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fusionwitt.no_such_name  # noqa: B018
    assert not hasattr(fusionwitt, "fp_dim")
