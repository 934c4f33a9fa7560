import argparse
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
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from fusionwitt import caps, cli, corpus, fpdim, fusion_ring, metric_group, witt
from fusionwitt.caps import CLOSURE_CAP, ELEMENT_CAP, ORDER_CAP, RANK_CAP
from fusionwitt.cli import (
    FileFormatError,
    fmt_value,
    main,
    parse_machine,
    parse_machine_value,
    parse_metric_file,
    parse_ring_file,
)
from fusionwitt.errors import FusionWittError, ValidationError


# z2 group ring with the rigidity line N 1 1 0 removed
BROKEN_Z2 = "rank 2\nlabels 1 g\ndual 0 1\nN 0 0 0 1\nN 0 1 1 1\nN 1 0 1 1\n"
# the z3 group ring without N 1 2 0: the left matrix of g1 is the
# nilpotent Jordan block [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
NILPOTENT_Z3 = ("rank 3\nlabels 1 g1 g2\ndual 0 2 1\nN 0 0 0 1\nN 0 1 1 1\nN 0 2 2 1\nN 1 0 1 1\nN 1 1 2 1\n"
                "N 2 0 2 1\nN 2 1 0 1\nN 2 2 1 1\n")
# a Z2-graded ring whose components {1, g} and {x} have candidate
# dimensions 1 + 1 and 3: g is invertible, x x = 1 + g, and x g = 2 x,
# so the subring check refutes the candidates
UNEQUAL_GRADING = ("rank 3\nlabels 1 g x\ndual 0 1 2\nN 0 0 0 1\nN 0 1 1 1\nN 0 2 2 1\nN 1 0 1 1\nN 1 1 0 1\n"
                   "N 1 2 2 1\nN 2 0 2 1\nN 2 1 2 2\nN 2 2 0 1\nN 2 2 1 1\n")
# Z2 with q = 1/3, which breaks the congruence 2 d q in Z at d = 2
BROKEN_CONGRUENCE = "orders 2\nq 1/3\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def format_ring_file(ring: fusion_ring.FusionRing, comment: str | None = None) -> str:
    """The ring file text that parse_ring_file reads back as ring."""
    out = []
    if comment:
        out.extend(f"# {line}" for line in comment.splitlines())
    out.append(f"rank {ring.rank}")
    out.append("labels " + " ".join(ring.labels))
    out.append("dual " + " ".join(str(d) for d in ring.dual))
    for i in range(ring.rank):
        for j in range(ring.rank):
            for k in range(ring.rank):
                if ring.coeff[i][j][k]:
                    out.append(f"N {i} {j} {k} {ring.coeff[i][j][k]}")
    return "\n".join(out) + "\n"


def format_metric_file(orders, diag, cross=(), comment: str | None = None) -> str:
    """The metric group file text that parse_metric_file reads back as
    (orders, diag, cross); integer cross terms are left out."""
    out = []
    if comment:
        out.extend(f"# {line}" for line in comment.splitlines())
    out.append("orders " + " ".join(str(d) for d in orders))
    out.append("q " + " ".join(str(Fraction(v)) for v in diag))
    for (i, j), v in sorted(dict(cross).items()):
        if Fraction(v) % 1 != 0:
            out.append(f"b {i + 1} {j + 1} {Fraction(v)}")
    return "\n".join(out) + "\n"


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


@pytest.mark.parametrize("name", ["d_s3.fr", "semion.mg"])
def test_validate_reads_its_file_once(capsys, monkeypatch, name):
    # the kind is sniffed from the lines the parser then reads
    reads = []
    read_lines = cli._read_lines
    monkeypatch.setattr(cli, "_read_lines", lambda path: reads.append(path) or read_lines(path))
    assert run_cli(capsys, "validate", corpus.path(name))[0] == 0
    assert reads == [corpus.path(name)]


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


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_forced_analyze_stops_where_grading_components_differ_in_dimension(tmp_path, monkeypatch, capsys, fmt):
    path = write(tmp_path, "unequal_grading.fr", UNEQUAL_GRADING)
    # the subring check refutes the candidate squares (1, 1, 3), since x g = 2 x
    code, out, err = run_cli(capsys, "analyze", "--force", "--format", fmt, path)
    assert code == 1
    assert_reports_forced_violations(out, fmt, path)
    assert err == "candidate dims sqrt(3) of x and sqrt(1) of g: their product differs from the dimension of x g\n"
    # the per-simple Bareiss certificate accepted all three squares, so
    # the ring passed as weakly integral, yet its grading components
    # {1, g} and {x} have dimensions 2 and 3: the guard stops there
    bareiss = fpdim.FPDimData(dims=(1.0, 1.0, 3**0.5), exact_square=(1, 1, 3), total=5.0, total_exact=5,
                              integral=False, weakly_integral=True)
    monkeypatch.setattr(fpdim, "fp_dim_data", lambda ring, tolerance: bareiss)
    code, out, err = run_cli(capsys, "analyze", "--force", "--format", fmt, path)
    assert code == 1
    assert_reports_forced_violations(out, fmt, path)
    assert err == "grading components have certified dimensions 2, 3; those of a weakly integral ring are equal\n"
    assert "nilpotent" not in out and "verdict" not in out


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
# containing eps (associativity fails); the
# z3 ring whose g1 has a nilpotent left matrix; and a ring whose grading
# components have unequal dimensions (re-recorded once analyze checked
# that they agree, and again once dimensions were certified by the
# subring check, which refutes its candidates before the grading guard
# runs).  The forced Ising entries were re-recorded then too: sigma
# sigma reaches eps, whose dimension is the golden ratio, so sigma is no
# longer certified and the run exits 1.  validate pins the violation
# listing of the broken z2 ring and of Ising with eps x eps containing
# eps, associativity included; validate and witt-class pin the failure
# of a form that breaks its congruence, listed once since the congruence
# d^2 q in Z is checked for odd d only.
GOLDEN_INVALID = json.loads(Path(__file__).with_name("golden_invalid.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(GOLDEN_INVALID))
def test_analyze_invalid_ring_output_is_pinned(tmp_path, monkeypatch, capsys, case):
    write(tmp_path, "broken_z2.fr", BROKEN_Z2)
    write(tmp_path, "z3_nilpotent.fr", NILPOTENT_Z3)
    write(tmp_path, "unequal_grading.fr", UNEQUAL_GRADING)
    write(tmp_path, "broken_congruence.mg", BROKEN_CONGRUENCE)
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


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_witt_verbs_refuse_the_same_oversized_odd_part(capsys, monkeypatch, fmt):
    # a reduction that stops at an anisotropic 3-part of order 27, which
    # no anisotropic form at p = 3 has
    z27 = metric_group.metric_group((27,), [Fraction(1, 27)])
    monkeypatch.setattr(witt, "anisotropic_reduction", lambda part: (z27, ()))
    message = "anisotropic 3-part has order 27, outside the expected {1, 3, 9}\n"
    for verb in ("witt-class", "witt-order"):
        assert run_cli(capsys, verb, corpus.path("z3_third.mg"), "--format", fmt) == (1, "", message)


CAP_CASES = [
    ("FUSIONWITT_ELEMENT_CAP", "--element-cap", ["witt-class", "z8_sixteenth.mg"]),
    ("FUSIONWITT_ORDER_CAP", "--order-cap", ["witt-order", "semion.mg"]),
    ("FUSIONWITT_CLOSURE_CAP", "--closure-cap", ["witt-subgroup", "z3_third.mg"]),
    ("FUSIONWITT_ELEMENT_CAP", "--element-cap", ["witt-order", "semion.mg"]),
    ("FUSIONWITT_RANK_CAP", "--rank-cap", ["validate", "z4.fr"]),
    ("FUSIONWITT_RANK_CAP", "--rank-cap", ["analyze", "z4.fr"]),
]

# the cap each job passes at, by flag and command: |A| = 8, class order 8,
# 4 classes, products of order 16 in semion's class-order search, and
# rank 4
PASSING_CAP = {
    ("--element-cap", "witt-class"): 8,
    ("--order-cap", "witt-order"): 8,
    ("--closure-cap", "witt-subgroup"): 8,
    ("--element-cap", "witt-order"): 16,
    ("--rank-cap", "validate"): 4,
    ("--rank-cap", "analyze"): 4,
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


@pytest.mark.parametrize("name", ["ising.fr", "rep_s3.fr", "z6.fr"])
def test_analyze_runs_the_prime_power_test_once(capsys, monkeypatch, name):
    calls = []
    real = fpdim.simple_dims_prime_power

    def counting(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(fpdim, "simple_dims_prime_power", counting)
    assert main(["analyze", corpus.path(name)]) == 0
    assert len(calls) == 1


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


@pytest.mark.parametrize("argv,entered", [
    (["classify", "1764"], []),
    (["scan", "100"], []),
    (["analyze", "ising.fr"], [(RANK_CAP, RANK_CAP.default)]),
    (["validate", "semion.mg"], [(ELEMENT_CAP, ELEMENT_CAP.default), (RANK_CAP, RANK_CAP.default)]),
    (["validate", "ising.fr", "--rank-cap", "3"], [(ELEMENT_CAP, ELEMENT_CAP.default), (RANK_CAP, 3)]),
    (["witt-class", "semion.mg", "--element-cap", "64"], [(ELEMENT_CAP, 64)]),
    (["witt-order", "semion.mg", "--order-cap", "16"], [(ORDER_CAP, 16), (ELEMENT_CAP, ELEMENT_CAP.default)]),
    (["witt-subgroup", "semion.mg", "semion_bar.mg"], [(CLOSURE_CAP, CLOSURE_CAP.default), (ELEMENT_CAP, ELEMENT_CAP.default)]),
], ids=lambda case: " ".join(case) if case and isinstance(case[0], str) else None)
def test_a_call_enters_only_the_caps_its_verb_takes_a_flag_for(capsys, monkeypatch, argv, entered):
    # a cap without its flag is entered at its default, read once per call
    for cap in (ELEMENT_CAP, ORDER_CAP, CLOSURE_CAP, RANK_CAP):
        monkeypatch.delenv(cap.env, raising=False)
    limit, calls = type(ELEMENT_CAP).limit, []

    def spy(cap, value):
        calls.append((cap, value))
        return limit(cap, value)

    monkeypatch.setattr(type(ELEMENT_CAP), "limit", spy)
    code, _, _ = run_cli(capsys, *(corpus.path(a) if a.endswith((".fr", ".mg")) else a for a in argv))
    assert code == 0
    assert calls == entered


@pytest.mark.parametrize("element_cap", [None, "64"])
def test_a_call_reads_each_cap_variable_at_most_once(capsys, monkeypatch, element_cap):
    reads, checks = [], []

    class CountingEnviron:
        def get(self, key, default=None):
            reads.append(key)
            return os.environ.get(key, default)

    check = type(ELEMENT_CAP).check

    def counting_check(cap, size, subject):
        checks.append(cap.env)
        return check(cap, size, subject)

    for cap in (ELEMENT_CAP, ORDER_CAP, CLOSURE_CAP, RANK_CAP):
        monkeypatch.delenv(cap.env, raising=False)
    if element_cap is not None:
        monkeypatch.setenv(ELEMENT_CAP.env, element_cap)
    monkeypatch.setattr(caps, "os", SimpleNamespace(environ=CountingEnviron()))
    monkeypatch.setattr(type(ELEMENT_CAP), "check", counting_check)
    files = [corpus.path(name) for name in ("semion.mg", "semion_bar.mg", "z4_eighth.mg", "z8_sixteenth.mg")]
    code, out, _ = run_cli(capsys, "witt-subgroup", *files, "--format", "machine")
    assert code == 0 and "subgroup_order=" in out
    assert checks.count(ELEMENT_CAP.env) > 1 and checks.count(CLOSURE_CAP.env) > 1
    assert sorted(reads) == sorted([ELEMENT_CAP.env, CLOSURE_CAP.env])


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


# ------------------------------------------------------ one parse per call


def main_oracle(argv: list[str] | None = None) -> int:
    """cli.main as it was when every call went through the top-level
    parser's parse_args, whose subparsers action ran the verb's parser on
    the words after the verb a second time."""
    args = cli.build_parser().parse_args(argv)
    command = getattr(cli, "_cmd_" + args.command.replace("-", "_"))
    element, order, closure, rank = (getattr(args, dest, None)
                                     for dest in ("element_cap", "order_cap", "closure_cap", "rank_cap"))
    try:
        with ELEMENT_CAP.limit(element), ORDER_CAP.limit(order), CLOSURE_CAP.limit(closure), RANK_CAP.limit(rank):
            report = command(args)
    except FileFormatError as err:
        print(str(err), file=sys.stderr)
        return 2
    except ValidationError as err:
        for v in err.violations:
            print(str(v), file=sys.stderr)
        return 1
    except (FusionWittError, ValueError) as err:
        print(str(err), file=sys.stderr)
        return 1
    print(report.render(args.format), end="")
    if report.error:
        print(report.error, file=sys.stderr)
    return report.status


def outcome(capsys, run, argv):
    """Exit status, stdout and stderr of run(argv); a usage error or -h
    exits through SystemExit."""
    try:
        code = run(argv)
    except SystemExit as exit_:
        code = exit_.code
    out = capsys.readouterr()
    return code, out.out, out.err


def corpus_argv(*words):
    """words with each corpus file name replaced by its path."""
    names = set(corpus.names())
    return [corpus.path(w) if w in names else w for w in words]


DISPATCH_CASES = [corpus_argv(*words.split()) for words in (
    # every verb with each of its flags
    "validate ising.fr",
    "validate semion.mg --format machine",
    "validate z8_sixteenth.mg --element-cap 4",
    "analyze ising.fr --format machine",
    "analyze fibonacci.fr --force",
    "analyze ising.fr --tolerance 1e-9",
    "witt-class z8_sixteenth.mg --element-cap 8",
    "witt-class z8_sixteenth.mg --element-cap 7 --format machine",
    "witt-order semion.mg --order-cap 4",
    "witt-order semion.mg --element-cap 16 --format machine",
    "witt-subgroup z3_third.mg z3_two_thirds.mg --closure-cap 3",
    "witt-subgroup z3_third.mg z5_fifth.mg --element-cap 25 --format machine",
    "classify 1764",
    "classify 27225 --format machine",
    "scan 2000 --odd",
    "scan 2000 --format machine",
    # no verb
    "",
    "-h",
    "--help",
    "bogus",
    "bogus 5",
    "--format machine classify 5",
    "-- classify 5",
    # -h after a verb
    "classify -h",
    "witt-subgroup semion.mg --help",
    "scan 100 -h --odd",
    # unknown options, with and without the positional
    "classify --bogus",
    "classify 5 --bogus",
    "classify 5 --bogus 7 --odd",
    "witt-order --bogus semion.mg",
    # abbreviated and joined options
    "witt-order --element 9 semion.mg",
    "classify 5 --form machine",
    "classify 5 --format=machine",
    "scan --od 100",
    "witt-order --order-cap=4 semion.mg",
    # bad values
    "classify -- -5",
    "classify five",
    "classify 5 --format json",
    "analyze ising.fr --tolerance abc",
    "witt-order semion.mg --order-cap 0",
    "witt-class semion.mg --element-cap -1",
    # missing and extra positionals
    "classify",
    "witt-subgroup",
    "witt-class semion.mg extra.mg",
    "classify 5 6",
)]


@pytest.mark.parametrize("argv", DISPATCH_CASES, ids=lambda argv: " ".join(Path(w).name for w in argv) or "-")
def test_dispatch_matches_the_top_level_parse(capsys, argv):
    assert outcome(capsys, main, argv) == outcome(capsys, main_oracle, argv)


def test_dispatch_reads_sys_argv_when_given_none(capsys, monkeypatch):
    for words in (["classify", "1764"], ["classify", "5", "--bogus"], ["bogus"]):
        monkeypatch.setattr(sys, "argv", ["fusionwitt", *words])
        assert outcome(capsys, main, None) == outcome(capsys, main_oracle, None)


@pytest.mark.parametrize("argv,top_level", [
    (["classify", "5"], False),
    (["classify", "5", "--bogus"], False),
    (["classify", "-h"], False),
    (["witt-order", "semion.mg", "--order-cap", "0"], False),
    ([], True),
    (["-h"], True),
    (["bogus"], True),
], ids=lambda case: " ".join(case) if isinstance(case, list) else None)
def test_only_an_argv_naming_no_verb_reaches_the_top_level_parser(capsys, monkeypatch, argv, top_level):
    parser, calls = cli.build_parser(), []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        if self is parser:
            calls.append(args)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    outcome(capsys, main, corpus_argv(*argv))
    assert bool(calls) == top_level


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
