from fractions import Fraction

import pytest

from fusionwitt import cli, corpus, fpdim
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
    for text in ["true", "false", "none", "42", "-7", "3/4", "1.5", "0.1", "a,b", "1,2,3", "Z2 x Z8"]:
        assert fmt_value(parse_machine_value(text)) == text


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


def test_machine_reports_round_trip(capsys):
    for argv in (
        ["analyze", corpus.path("ising.fr"), "--format", "machine"],
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
    # z2 group ring with the rigidity line N 1 1 0 removed
    path = write(tmp_path, "broken.fr", "rank 2\nlabels 1 g\ndual 0 1\nN 0 0 0 1\nN 0 1 1 1\nN 1 0 1 1\n")
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


def test_analyze_refuses_invalid_without_force(tmp_path, capsys):
    path = write(tmp_path, "broken.fr", "rank 2\nlabels 1 g\ndual 0 1\nN 0 0 0 1\nN 0 1 1 1\nN 1 0 1 1\n")
    code, _, err = run_cli(capsys, "analyze", path)
    assert code == 1
    assert "--force" in err


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


@pytest.mark.parametrize(
    "env,flag,argv",
    [
        ("FUSIONWITT_ELEMENT_CAP", "--element-cap", ["witt-class", "z8_sixteenth.mg"]),
        ("FUSIONWITT_ORDER_CAP", "--order-cap", ["witt-order", "semion.mg"]),
        ("FUSIONWITT_CLOSURE_CAP", "--closure-cap", ["witt-subgroup", "z3_third.mg"]),
    ],
)
def test_cap_refusal_names_env_var_and_flag(capsys, monkeypatch, env, flag, argv):
    # each job counts more than 3 and at most 8: |A| = 8, class order 8, 4 classes
    argv = [argv[0]] + [corpus.path(name) for name in argv[1:]]
    code, _, err = run_cli(capsys, *argv, flag, "3")
    assert code == 1
    assert f"cap 3; raise it with {env} or {flag}" in err
    monkeypatch.setenv(env, "3")
    code, _, env_err = run_cli(capsys, *argv)
    assert (code, env_err) == (1, err)
    code, _, _ = run_cli(capsys, *argv, flag, "8")
    assert code == 0


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
