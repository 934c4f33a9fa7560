"""scripts/pool_outputs.py: a smoke run on a few jobs, and the digests of
the seed-1 Witt pools pinned, so that a change to any Witt output fails."""

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


# sha256 of the whole stdout of `scripts/pool_outputs.py --workload W
# --seed 1` (part 0): one digest line per job, so a change to any byte
# of any job's output changes it.  Re-record a pin only with a change
# that says why an output moved, or when bench/workloads.py changes the
# pool itself.
POOL_DIGESTS = {
    "witt_closure": "690022e7b9c507e620da4d2311a074e2562c73276fb3cf389590ea6eb02294e3",
    "witt_reduce": "3f99a7cc5f808e4def7772d05f1ae20a3614f9c1864e00b2c33c4cf06040d80e",
}


@pytest.mark.parametrize("workload", sorted(POOL_DIGESTS))
def test_witt_pool_outputs_are_pinned(capsys, workload):
    module = load("pool_outputs")
    assert module.main(["--workload", workload, "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert all(" status=0 " in line for line in out.splitlines()[1:])
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == POOL_DIGESTS[workload]
