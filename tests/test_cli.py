"""The command-line front end: argument checks and exit codes."""

import json

import pytest

from nsx import cli, runner


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize("command", [["paper-suite"], ["check", "unused.nsx"]])
def test_samples_below_one_is_a_usage_error(command, value, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(command + ["--samples", value])
    assert e.value.code == 2
    assert f"--samples: must be at least 1, got {value}" in capsys.readouterr().err


def test_samples_must_be_an_int(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["paper-suite", "--samples", "two"])
    assert e.value.code == 2
    assert "--samples: invalid int value: 'two'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "1e400", "-1"])
@pytest.mark.parametrize("command", [["paper-suite"], ["check", "unused.nsx"]])
def test_tol_must_be_finite_and_not_negative(command, value, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(command + ["--tol", value])
    assert e.value.code == 2
    assert f"--tol: must be a finite number at least 0, got {value}" in capsys.readouterr().err


def test_tol_must_be_a_number(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["paper-suite", "--tol", "small"])
    assert e.value.code == 2
    assert "--tol: invalid float value: 'small'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line", ["check property dd_zero samples 0", "check contact al grid 0"]
)
def test_zero_budget_in_a_file_exits_2(tmp_path, line, capsys):
    path = tmp_path / "zero.nsx"
    path.write_text(f"chart C(x, y, z)\nform al on C = d(z)\n{line}\n")
    assert cli.main(["check", str(path)]) == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "print"])
@pytest.mark.parametrize(
    "expr, message",
    [
        ("²*d(x)", "line 2, col 16: unexpected character '²'"),
        ("(" * 250 + "x" + ")" * 250, "line 2, col 66: expression nested too deeply"),
        ("-" * 1000 + "x", "line 2, col 66: expression nested too deeply"),
        (" + ".join(["x"] * 1500), "line 2, col 218: expression nested too deeply"),
    ],
    ids=["superscript digit", "250 parentheses", "1000 minus signs", "1500-term sum"],
)
def test_unreadable_expression_exits_2(tmp_path, command, expr, message, capsys):
    path = tmp_path / "bad.nsx"
    path.write_text(f"chart C(x, y)\nform om on C = {expr}\n")
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["check", "print"])
def test_zero_repetition_count_exits_2(tmp_path, command, capsys):
    path = tmp_path / "box.nsx"
    path.write_text("chart C(x, y)\nregion R on C = [0, 1]^0 lattice 3 random 0\n")
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr().err == "error: line 2, col 24: repetition count must be at least 1\n"


def test_negative_margin_exits_2(tmp_path, capsys):
    path = tmp_path / "margin.nsx"
    path.write_text(
        "chart C(x, y)\nform om on C = x*d(y)\nregion R on C = [-1, 1]^2 lattice 3 random 8\n"
        "locus L on C = coords(x = 0)\ncheck vanishing_locus om on L region R off nonzero margin -1/8\n"
    )
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 5, col 59: margin must be nonnegative\n"


@pytest.mark.parametrize("command", ["check", "print"])
@pytest.mark.parametrize("lattice, col", [("0", 34), ("(2, 0)", 38)])
def test_zero_lattice_resolution_exits_2(tmp_path, command, lattice, col, capsys):
    path = tmp_path / "box.nsx"
    path.write_text(f"chart C(x, y)\nregion R on C = [0, 1]^2 lattice {lattice} random 8\n")
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: line 2, col {col}: lattice resolution must be at least 1\n"


# exp(exp(exp(x))) overflows a float for x above about 1.9, so some of the
# sampled points of `equal` have no float value on some seeds.
OVERFLOWING_EQUAL = """chart C(x)
const a = exp(exp(exp(x)))*sin(x)^2
const b = exp(exp(exp(x))) - exp(exp(exp(x)))*cos(x)^2
check equal a, b
"""


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_equal_skips_overflowing_samples(tmp_path, seed):
    path = tmp_path / "overflow.nsx"
    path.write_text(OVERFLOWING_EQUAL)
    report = tmp_path / "report.json"
    # An undecided check is not the declared pass, so the run exits 1.
    assert cli.main(["check", str(path), "--seed", str(seed), "--json", str(report)]) == 1
    (check,) = json.loads(report.read_text())["scenarios"][0]["checks"]
    assert check["verdict"] == "undecided"


def test_eval_prints_an_overflowing_value_as_inf(tmp_path, capsys):
    # Past the float range exact evaluation gives inf, as numpy does.
    path = tmp_path / "big.nsx"
    path.write_text("chart C(x)\nconst k = exp(exp(exp(x)))\nconst h = x + 1\n")
    assert cli.main(["eval", str(path), "--at", "x=9"]) == 0
    assert capsys.readouterr().out == "k = inf\nh = 10\n"


def test_eval_names_the_line_of_an_elaboration_error(tmp_path, capsys):
    path = tmp_path / "twice.nsx"
    path.write_text("chart C(x, y)\nform w on C = d(x) /\\ d(y)\nparam w\n")
    assert cli.main(["eval", str(path), "--at", "x=1,y=1"]) == 2
    assert capsys.readouterr().err == "error: line 3: 'w' is already defined\n"


@pytest.mark.parametrize(
    "value, message",
    [
        ("1/0", "division by zero"),
        ("0^-1", "division by zero"),
        ("1/(x + y)", "negative powers need a single-term base, got 2 terms"),
    ],
)
def test_a_bad_division_names_its_rule(tmp_path, value, message, capsys):
    path = tmp_path / "div.nsx"
    path.write_text(f"chart C(x, y)\nconst k = {value}\n")
    assert cli.main(["eval", str(path), "--at", "x=1,y=2"]) == 2
    assert capsys.readouterr().err == f"error: line 2: {message}\n"
    assert cli.main(["check", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"div.0 elaboration ERROR (error): line 2: {message} [unexpected]"


# The upper bound 10^400, written out, is too large for a float.
HUGE_REGION = f"""chart C(x, y)
form om on C = x*d(x)
locus L on C = coords(x=0)
region R on C = [0, {10**400}]^2 lattice 2 random 8
check positive 1 + x^2 region R
check vanishing_locus om on L region R
"""


def test_a_bound_too_large_for_a_float_ends_in_verdicts(tmp_path, capsys):
    path = tmp_path / "huge.nsx"
    path.write_text(HUGE_REGION)
    report = tmp_path / "report.json"
    assert cli.main(["check", str(path), "--json", str(report)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    positive, vanishing = json.loads(report.read_text())["scenarios"][0]["checks"]
    assert (positive["verdict"], positive["detail"]) == ("pass", "(12 samples)")
    # A coordinate beyond the float range is an infinite float sample,
    # which decides nothing.
    assert (vanishing["verdict"], vanishing["detail"]) == (
        "undecided",
        "(2/2 on-locus, 0/8 off-locus, 8 non-finite)",
    )


def test_an_exact_value_past_the_float_range_is_non_finite(tmp_path, capsys):
    # exp(x) is exactly 1 at x = 0 and infinite as a float at every other
    # sample, whose exact argument is too large for a float.
    path = tmp_path / "huge.nsx"
    path.write_text(HUGE_REGION + "check positive exp(x) region R\n")
    report = tmp_path / "report.json"
    assert cli.main(["check", str(path), "--json", str(report)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    check = json.loads(report.read_text())["scenarios"][0]["checks"][2]
    assert (check["verdict"], check["detail"]) == ("undecided", "(12 samples, 10 non-finite)")
    assert check["evidence"] == {"counterexamples": [], "failures": 0, "non_finite": 10, "samples": 12}


@pytest.mark.parametrize("interval", ["[2, 1]", "[0.5, 1/3]"])
def test_an_empty_interval_is_an_elaboration_error(tmp_path, interval):
    path = tmp_path / "empty.nsx"
    path.write_text(f"chart C(x, y)\nregion R on C = {interval}^2 lattice 2 random 8\ncheck positive 1 + x^2 region R\n")
    report = tmp_path / "report.json"
    assert cli.main(["check", str(path), "--json", str(report)]) == 1
    (check,) = json.loads(report.read_text())["scenarios"][0]["checks"]
    assert check["kind"] == "elaboration"
    assert check["evidence"] == {"error": f"line 2: empty interval {interval}"}


@pytest.mark.parametrize("command", [["check", "ok.nsx"], ["paper-suite", "--only", "S1"]])
def test_an_unwritable_json_path_exits_2(tmp_path, monkeypatch, command, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.nsx").write_text("chart C(x, y)\nconst k = x + 1\n")
    target = tmp_path / "no" / "such" / "dir" / "r.json"
    assert cli.main(command + ["--json", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(target) in err and "Traceback" not in err
    assert err.count("\n") == 1


def test_an_escaping_exception_is_an_internal_error(monkeypatch, capsys):
    def broken(**kwargs):
        raise RuntimeError("planted\nfault")

    monkeypatch.setattr(cli, "run_suite", broken)
    assert cli.main(["paper-suite", "--only", "S1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError('planted\\nfault')\n"


def test_an_internal_error_names_the_scenario(monkeypatch, capsys):
    def broken(scenario, config):
        raise RuntimeError("planted")

    monkeypatch.setattr(runner, "elaborate_scope", broken)
    assert cli.main(["paper-suite", "--only", "S2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error in scenario S2: RuntimeError('planted')\n"


def test_an_internal_error_names_the_check(monkeypatch, capsys, tmp_path):
    path = tmp_path / "two.nsx"
    path.write_text("chart C(x, y)\nform w on C = x*d(y)\ncheck closed d(w)\ncheck equal w, w\n")
    original = runner.run_check

    def broken(scope, stmt, sid, index, config):
        if index == 1:
            raise RuntimeError("planted")
        return original(scope, stmt, sid, index, config)

    monkeypatch.setattr(runner, "run_check", broken)
    assert cli.main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error in scenario two, check 1 (equal): RuntimeError('planted')\n"
