"""Every function the benchmark's tracer wraps still exists in fusionwitt.

bench/tracer.py names its targets as (span, module, attribute) and looks
them up when `bench/run.py --trace 1` installs it, so renaming or
deleting a traced function breaks that run.  The tracer is loaded by
path, as the benchmark loads it, and is not changed here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracer().TARGETS


@pytest.mark.parametrize("span,module,attr", TARGETS, ids=[f"{m}.{a}" for _, m, a in TARGETS])
def test_traced_name_resolves(span, module, attr):
    owner = importlib.import_module(f"fusionwitt.{module}")
    if "." in attr:
        # the tracer reads a method from the class's own __dict__
        cls_name, attr = attr.split(".")
        owner = vars(getattr(owner, cls_name))
        assert attr in owner, f"{module}.{cls_name}.{attr} is gone; bench/tracer.py traces it as {span}"
        return
    assert callable(getattr(owner, attr, None)), f"{module}.{attr} is gone; bench/tracer.py traces it as {span}"


def test_cyclotomic_polynomial_keeps_cache_info():
    # bench/run.py reads cyclotomic_polynomial.cache_info().misses for the
    # cyclotomic.cyclotomic_polynomial.misses metric
    from fusionwitt.cyclotomic import cyclotomic_polynomial

    assert callable(getattr(cyclotomic_polynomial, "cache_info", None))
