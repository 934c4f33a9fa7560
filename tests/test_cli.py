import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fusionwitt import cli, corpus, fpdim, fusion_ring
from fusionwitt.cli import (
    FileFormatError,
    fmt_value,
    format_metric_file,
    format_ring_file,
    main,
    parse_machine,
    parse_machine_value,
    parse_metric_file,
    parse_ring_file,
)


# z2 group ring with the rigidity line N 1 1 0 removed
BROKEN_Z2 = "rank 2\nlabels 1 g\ndual 0 1\nN 0 0 0 1\nN 0 1 1 1\nN 1 0 1 1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------ file parsing


def test_ring_round_trip(tmp_path, ising_ring):
    path = write(tmp_path, "ring.fr", format_ring_file(ising_ring, comment="round trip"))
    assert parse_ring_file(path) == ising_ring


def test_metric_round_trip(tmp_path):
    text = format_metric_file((2, 4), [Fraction(1, 4), Fraction(1, 8)], {(0, 1): Fraction(1, 2)})
    path = write(tmp_path, "m.mg", text)
    orders, diag, cross = parse_metric_file(path)
    assert orders == (2, 4)
    assert diag == [Fraction(1, 4), Fraction(1, 8)]
    assert cross == {(0, 1): Fraction(1, 2)}


def test_comments_and_blank_lines_ignored(tmp_path):
    path = write(tmp_path, "r.fr", "# header\n\nrank 1\nlabels 1  # inline\ndual 0\nN 0 0 0 1\n")
    ring = parse_ring_file(path)
    assert ring.rank == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("labels a\ndual 0\n", "expected rank"),
        ("rank 0\nlabels\ndual\n", "at least 1"),
        ("rank 2\nlabels a\ndual 0 1\n", "2 names"),
        ("rank 2\nlabels a b\ndual 0\n", "2 indices"),
        ("rank 2\nlabels a b\ndual 0 x\n", "integers"),
        ("rank 2\nlabels a b\ndual 0 5\n", "out of range"),
        ("rank 2\nlabels a b\ndual 0 1\nN 0 0 0\n", "expected 'N i j k m'"),
        ("rank 2\nlabels a b\ndual 0 1\nN 0 0 9 1\n", "out of range"),
        ("rank 2\nlabels a b\ndual 0 1\nN 0 0 0 1\nN 0 0 0 1\n", "duplicate"),
    ],
)
def test_ring_syntax_errors(tmp_path, text, fragment):
    path = write(tmp_path, "bad.fr", text)
    with pytest.raises(FileFormatError) as err:
        parse_ring_file(path)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("q 1/4\n", "expected orders"),
        ("orders 2\nq\n", "1 values"),
        ("orders 2\nq x\n", "exact fractions"),
        ("orders 2\nq 1/4\nb 1 1 1/2\n", "1 <= i < j"),
        ("orders 2 2\nq 0 0\nb 1 2 1/2\nb 1 2 1/2\n", "duplicate"),
        ("orders 2 2\nq 0 0\nb 1 2\n", "expected 'b i j value'"),
    ],
)
def test_metric_syntax_errors(tmp_path, text, fragment):
    path = write(tmp_path, "bad.mg", text)
    with pytest.raises(FileFormatError) as err:
        parse_metric_file(path)
    assert fragment in str(err.value)


def test_syntax_errors_carry_line_numbers(tmp_path):
    path = write(tmp_path, "bad.fr", "rank 2\nlabels a b\ndual 0 1\n# fine\nN 0 0 0 oops\n")
    with pytest.raises(FileFormatError) as err:
        parse_ring_file(path)
    assert ":5:" in str(err.value)


def test_missing_file_is_a_format_error():
    with pytest.raises(FileFormatError):
        parse_ring_file("/nonexistent/nowhere.fr")


# -------------------------------------------------------- machine format


def test_machine_value_round_trip():
    texts = ["true", "false", "none", "42", "-7", "3/4", "1.5", "0.1", "a,b", "1,2,3", "Z2 x Z8"]
    # int, Fraction or float would read these, but render them differently
    texts += ["01", "1_0", "1e5", "6/8", "-0", "1,01"]
    for text in texts:
        assert fmt_value(parse_machine_value(text)) == text


# tokens that int, Fraction or float may read, often not rendering them back the same way
NUMERIC_LOOKING = st.from_regex(r"[-+ ]?[0-9_]{0,3}[./eE]?[-+]?[0-9_]{0,3}", fullmatch=True)


@given(st.one_of(st.text(alphabet=st.characters(exclude_characters=",=\n")), NUMERIC_LOOKING))
def test_machine_value_round_trips_any_token(token):
    assert fmt_value(parse_machine_value(token)) == token


def test_machine_typed_values():
    assert parse_machine_value("true") is True
    assert parse_machine_value("none") is None
    assert parse_machine_value("42") == 42
    assert parse_machine_value("3/4") == Fraction(3, 4)
    assert parse_machine_value("1,2") == (1, 2)
    assert isinstance(parse_machine_value("1.5"), float)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_machine_reports_round_trip(tmp_path, capsys):
    # the z2 group ring with its second simple labelled 01, which reads back as a string, not as the int 1
    leading_zero = write(tmp_path, "z2.fr", BROKEN_Z2.replace("labels 1 g", "labels 1 01") + "N 1 1 0 1\n")
    for argv in (
        ["analyze", corpus.path("ising.fr"), "--format", "machine"],
        ["analyze", leading_zero, "--format", "machine"],
        ["classify", "1764", "--format", "machine"],
        ["scan", "2000", "--format", "machine"],
        ["witt-class", corpus.path("z8_sixteenth.mg"), "--format", "machine"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        parsed = parse_machine(out)
        assert parsed
        for line in out.splitlines():
            key, _, value = line.partition("=")
            assert fmt_value(parsed[key]) == value


# ------------------------------------------------------------- verb flows


def test_validate_ring_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", corpus.path("ising.fr"))
    assert code == 0
    assert "valid" in out


def test_validate_metric_reports_degeneracy(capsys):
    code, out, _ = run_cli(capsys, "validate", corpus.path("z2_fermion_degenerate.mg"))
    assert code == 0
    assert "degenerate" in out


def test_validate_broken_ring_exits_one(tmp_path, capsys):
    path = write(tmp_path, "broken.fr", BROKEN_Z2)
    code, out, _ = run_cli(capsys, "validate", path)
    assert code == 1
    assert "rigidity" in out


def test_validate_invalid_metric_exits_one(tmp_path, capsys):
    path = write(tmp_path, "bad.mg", "orders 2\nq 1/3\n")
    code, out, _ = run_cli(capsys, "validate", path)
    assert code == 1
    assert "congruence" in out


def test_syntax_error_exits_two(tmp_path, capsys):
    path = write(tmp_path, "bad.fr", "rank x\nlabels a\ndual 0\n")
    code, _, err = run_cli(capsys, "validate", path)
    assert code == 2
    assert "expected 'rank" in err


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize(
    "name, text, message",
    [
        ("qzero.mg", "orders 2\nq 1/0\n", "qzero.mg:2: q values must be exact fractions"),
        ("bzero.mg", "orders 2 2\nq 1/4 1/4\nb 1 2 1/0\n", "bzero.mg:3: expected integer indices and a fraction"),
    ],
)
def test_zero_denominator_is_a_file_format_error(tmp_path, monkeypatch, capsys, fmt, name, text, message):
    # Fraction("1/0") raises ZeroDivisionError, which is no ValueError
    write(tmp_path, name, text)
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "validate", "--format", fmt, name) == (2, "", message + "\n")


def test_analyze_refuses_invalid_without_force(tmp_path, capsys):
    path = write(tmp_path, "broken.fr", BROKEN_Z2)
    code, _, err = run_cli(capsys, "analyze", path)
    assert code == 1
    assert "--force" in err


def assert_reports_forced_violations(out: str, fmt: str, path: str) -> None:
    """out is an analyze report that lists every violation of the ring
    at path under the forced-past heading (text) or counts them (machine)."""
    violations = [str(v) for v in fusion_ring.validate_ring(parse_ring_file(path))]
    assert violations
    if fmt == "text":
        assert out.startswith(f"analyze {path}\n")
        assert "\nviolations (forced past)\n" + "".join(f"  {v}\n" for v in violations) in out
    else:
        assert out.startswith("rank=") and f"\nvalid=false\nviolation_count={len(violations)}\n" in out


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_forced_analyze_names_a_unit_that_is_not_invertible(tmp_path, capsys, fmt):
    # X0 X0 = 2 X0: the ring has no invertibles, so no group of them; the
    # report keeps the violations it was forced past
    path = write(tmp_path, "unit2.fr", "rank 1\nlabels 1\ndual 0\nN 0 0 0 2\n")
    code, out, err = run_cli(capsys, "analyze", "--force", "--format", fmt, path)
    assert code == 1
    assert_reports_forced_violations(out, fmt, path)
    assert err == "the unit 1 is not invertible, so the invertibles form no group\n"


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_forced_analyze_stops_on_a_table_that_is_no_group(tmp_path, fmt):
    # z4 with g1 g1 = g1: the powers of g1 never reach the unit.  The run
    # is a child process with a timeout, so a hang fails the test.
    text = Path(corpus.path("z4.fr")).read_text(encoding="utf-8").replace("N 1 1 2 1\n", "N 1 1 1 1\n")
    path = write(tmp_path, "z4_not_a_group.fr", text)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "fusionwitt.cli", "analyze", "--force", "--format", fmt, path]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=30, env=env)
    assert (run.returncode, run.stderr) == (1, "powers of g1 never reach the unit\n")
    assert_reports_forced_violations(run.stdout, fmt, path)


def test_forced_analyze_gives_up_on_the_power_iteration_within_a_tenth_of_a_second(tmp_path, capsys):
    # X1 of the broken z2 ring is nilpotent, so the power iteration never
    # settles and must give up after its budget of 1500 steps per row
    path = write(tmp_path, "broken_z2.fr", BROKEN_Z2)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "analyze", "--force", path)
    seconds = time.perf_counter() - start
    assert (code, err) == (1, "power iteration did not converge in 3000 steps\n")
    assert seconds < 0.1


def test_analyze_takes_no_element_cap(capsys):
    with pytest.raises(SystemExit) as err:
        main(["analyze", corpus.path("ising.fr"), "--element-cap", "8"])
    assert err.value.code == 2
    assert "unrecognized arguments: --element-cap 8" in capsys.readouterr().err


# exit status, stdout and stderr of analyze on invalid rings, recorded
# before reports were rebuilt on one record: the broken z2 ring (whose
# forced analysis fails in the power iteration, re-recorded once its
# report kept the violations forced past and again once the iteration's
# step budget was scaled to the rank) and Ising with eps x eps
# containing eps (associativity fails, forced analysis completes)
GOLDEN_INVALID = json.loads(Path(__file__).with_name("golden_invalid.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(GOLDEN_INVALID))
def test_analyze_invalid_ring_output_is_pinned(tmp_path, monkeypatch, capsys, case):
    write(tmp_path, "broken_z2.fr", BROKEN_Z2)
    with open(corpus.path("ising.fr"), encoding="utf-8") as fh:
        write(tmp_path, "ising_assoc.fr", fh.read() + "N 1 1 1 1\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *case.split())
    assert {"code": code, "stdout": out, "stderr": err} == GOLDEN_INVALID[case]


def test_analyze_ising_text_report(capsys, ising_ring):
    code, out, _ = run_cli(capsys, "analyze", corpus.path("ising.fr"))
    assert code == 0
    assert "dim^2 = 2 exactly" in out
    assert "group: Z2" in out
    assert "nilpotent: true (depth 2)" in out
    assert "kind: SolvableSinglePrime" in out


def test_analyze_machine_keys(capsys):
    code, out, _ = run_cli(capsys, "analyze", corpus.path("fibonacci.fr"), "--format", "machine")
    assert code == 0
    report = parse_machine(out)
    assert report["exact_square_1"] is None
    assert report["weakly_integral"] is False
    assert report["verdict"] == "Unknown"


def test_analyze_rejects_bad_tolerance(capsys):
    code, _, err = run_cli(capsys, "analyze", corpus.path("ising.fr"), "--tolerance", "0.5")
    assert code == 1
    assert "tolerance" in err


def test_witt_class_of_degenerate_exits_one(capsys):
    code, _, err = run_cli(capsys, "witt-class", corpus.path("z2_fermion_degenerate.mg"))
    assert code == 1
    assert "degenerate" in err


@pytest.mark.parametrize("verb", ["witt-class", "witt-order", "witt-subgroup"])
def test_witt_verbs_refuse_degenerate_forms_naming_the_file(capsys, verb):
    path = corpus.path("z2_fermion_degenerate.mg")
    code, out, err = run_cli(capsys, verb, path)
    assert code == 1
    assert out == ""
    assert err == f"{path}: degenerate form; Witt classes need nondegenerate forms\n"


CAP_CASES = [
    ("FUSIONWITT_ELEMENT_CAP", "--element-cap", ["witt-class", "z8_sixteenth.mg"]),
    ("FUSIONWITT_ORDER_CAP", "--order-cap", ["witt-order", "semion.mg"]),
    ("FUSIONWITT_CLOSURE_CAP", "--closure-cap", ["witt-subgroup", "z3_third.mg"]),
    ("FUSIONWITT_ELEMENT_CAP", "--element-cap", ["witt-order", "semion.mg"]),
]

# the cap each job passes at, by flag and command: |A| = 8, class order 8,
# 4 classes, and products of order 16 in semion's class-order search
PASSING_CAP = {
    ("--element-cap", "witt-class"): 8,
    ("--order-cap", "witt-order"): 8,
    ("--closure-cap", "witt-subgroup"): 8,
    ("--element-cap", "witt-order"): 16,
}


@pytest.mark.parametrize("env,flag,argv", CAP_CASES)
def test_cap_refusal_names_env_var_and_flag(capsys, monkeypatch, env, flag, argv):
    # each job counts more than 3
    argv = [argv[0]] + [corpus.path(name) for name in argv[1:]]
    code, _, err = run_cli(capsys, *argv, flag, "3")
    assert code == 1
    assert f"cap 3; raise it with {env} or {flag}" in err
    monkeypatch.setenv(env, "3")
    code, _, env_err = run_cli(capsys, *argv)
    assert (code, env_err) == (1, err)
    code, _, _ = run_cli(capsys, *argv, flag, str(PASSING_CAP[flag, argv[0]]))
    assert code == 0


@pytest.mark.parametrize("env,flag,argv", CAP_CASES)
@pytest.mark.parametrize("bad", ["abc", "0", "-1", "2.5"])
def test_cap_values_must_be_positive_integers(capsys, monkeypatch, env, flag, argv, bad):
    argv = [argv[0]] + [corpus.path(name) for name in argv[1:]]
    with pytest.raises(SystemExit) as err:
        main([*argv, f"{flag}={bad}"])
    assert err.value.code == 2
    assert f"argument {flag}: invalid positive_int value: '{bad}'" in capsys.readouterr().err
    monkeypatch.setenv(env, bad)
    assert run_cli(capsys, *argv) == (1, "", f"{env} must be a positive integer, not '{bad}'\n")


def test_analyze_lets_unrelated_errors_through(capsys, monkeypatch):
    def broken(data):
        raise RuntimeError("not a certification problem")

    monkeypatch.setattr(fpdim, "simple_dims_prime_power", broken)
    with pytest.raises(RuntimeError):
        main(["analyze", corpus.path("ising.fr")])


def test_witt_order_machine(capsys):
    code, out, _ = run_cli(capsys, "witt-order", corpus.path("semion.mg"), "--format", "machine")
    assert code == 0
    assert parse_machine(out)["witt_order"] == 8


def test_witt_subgroup_flow(capsys):
    code, out, _ = run_cli(
        capsys,
        "witt-subgroup",
        corpus.path("z3_third.mg"),
        corpus.path("z3_two_thirds.mg"),
        "--format",
        "machine",
    )
    assert code == 0
    report = parse_machine(out)
    assert report["subgroup_order"] == 4
    assert report["invariant_factors"] == 4
    assert report["group"] == "Z4"


def test_classify_divergent_dimension(capsys):
    code, out, _ = run_cli(capsys, "classify", "27225")
    assert code == 0
    assert "Unknown" in out
    assert "divergence" in out


def test_scan_flags_divergence(capsys):
    code, out, _ = run_cli(capsys, "scan", "1800")
    assert code == 0
    assert "900" in out and "1764" in out
    assert "DIVERGENCE" in out


def test_scan_odd(capsys):
    code, out, _ = run_cli(capsys, "scan", "33075", "--odd", "--format", "machine")
    assert code == 0
    report = parse_machine(out)
    assert report["exceptions"] == (11025, 27225)
    assert report["divergent"] == 27225


def test_main_calls_verbs_and_readers_bound_at_call_time(capsys, monkeypatch):
    # bench/tracer.py wraps these by rebinding module globals; a dispatch
    # table built at import time would bypass the wrappers
    calls = []

    def spy(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(cli, "_cmd_scan", spy(cli._cmd_scan))
    monkeypatch.setattr(cli, "_sniff_kind", spy(cli._sniff_kind))
    assert run_cli(capsys, "scan", "100")[0] == 0
    assert run_cli(capsys, "validate", corpus.path("ising.fr"))[0] == 0
    assert calls == ["_cmd_scan", "_sniff_kind"]


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_reports_are_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "analyze", corpus.path("rep_s3.fr"), "--format", "machine")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


# ---------------------------------------------------- one parser per process


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_a_cap_flag_does_not_outlive_its_call(capsys):
    path = corpus.path("semion.mg")
    code, _, err = run_cli(capsys, "witt-order", path, "--order-cap", "4")
    assert code == 1
    assert "class order exceeds the order cap 4; raise it with FUSIONWITT_ORDER_CAP or --order-cap" in err
    code, out, _ = run_cli(capsys, "witt-order", path, "--format", "machine")
    assert code == 0
    assert "witt_order=8\n" in out


def test_a_cap_variable_set_after_the_parser_is_built_is_read(capsys, monkeypatch):
    cli.build_parser()
    monkeypatch.setenv("FUSIONWITT_ORDER_CAP", "4")
    code, _, err = run_cli(capsys, "witt-order", corpus.path("semion.mg"))
    assert code == 1
    assert "exceeds the order cap 4; raise it with FUSIONWITT_ORDER_CAP" in err


def test_a_usage_error_leaves_the_parser_as_it_was(capsys):
    argv = ["analyze", corpus.path("rep_s3.fr")]
    before = run_cli(capsys, *argv)
    with pytest.raises(SystemExit) as err:
        main(["witt-class"])
    assert err.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, *argv) == before


def test_calls_leave_no_reference_cycles(tmp_path):
    # a cycle is freed only by the collector, so a call that leaves one
    # behind makes garbage on every call.  Every corpus file goes through
    # each verb that reads it, then classify and scan, in both formats;
    # degenerate forms exit 1, and a malformed file exits 2.
    verbs = {".fr": ("validate", "analyze"), ".mg": ("validate", "witt-class", "witt-order", "witt-subgroup")}
    runs = [[verb, corpus.path(name)] for name in corpus.names() for verb in verbs[Path(name).suffix]]
    runs += [["classify", "27225"], ["classify", "1800"], ["scan", "1800"], ["scan", "33075", "--odd"]]
    runs += [["witt-class", write(tmp_path, "bad.mg", "orders 2\nq x\n")]]
    runs = [[*argv, "--format", fmt] for argv in runs for fmt in ("text", "machine")]

    def call(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)

    for argv in {argv[0]: argv for argv in runs}.values():
        call(argv)
    # the objects alive now are frozen, so each collection looks only at
    # what the calls made
    gc.collect()
    gc.disable()
    gc.freeze()
    try:
        statuses = set()
        for argv in runs:
            statuses.add(call(argv))
            assert gc.collect() == 0, f"{argv} left reference cycles"
    finally:
        gc.unfreeze()
        gc.enable()
    assert statuses == {0, 1, 2}
