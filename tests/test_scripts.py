"""Smoke run of scripts/pool_outputs.py on a few jobs."""

import contextlib
import hashlib
import importlib.util
import io
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pool_outputs_digests_each_jobs_stdout(capsys, monkeypatch, tmp_path):
    module = load("pool_outputs")
    make_pool = module.workloads.make_pool
    monkeypatch.setattr(module.workloads, "make_pool", lambda *args: make_pool(*args)[:3])
    assert module.main(["--workload", "witt_closure", "--seed", "1"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "part 0"
    assert [line.split()[:3] for line in lines] == [[f"{n:03d}", "witt-subgroup", "status=0"] for n in range(3)]
    assert all(re.fullmatch(r"sha256=[0-9a-f]{64}", line.split()[3]) for line in lines)
    # the first digest is that of the job's whole stdout, run directly
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert module.cli.main(module.run.write_inputs(make_pool("witt_closure", 1)[:1], tmp_path / "inputs")[0]) == 0
    assert lines[0].split()[3] == "sha256=" + hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_pool_outputs_prints_each_part_after_its_header(capsys, monkeypatch):
    module = load("pool_outputs")
    make_pool = module.workloads.make_pool
    monkeypatch.setattr(module.workloads, "make_pool", lambda *args: make_pool(*args)[:2])
    argv = ["--workload", "rings", "--seed", "1", "--part"]
    assert module.main(argv + ["0", "1"]) == 0
    both = capsys.readouterr().out.splitlines()
    assert [both[0], both[3]] == ["part 0", "part 1"]
    # each part's lines are those of a run on that part alone
    for part, lines in (("0", both[:3]), ("1", both[3:])):
        assert module.main(argv + [part]) == 0
        assert capsys.readouterr().out.splitlines() == lines
    # the two parts are different pools
    assert both[1:3] != both[4:6]
