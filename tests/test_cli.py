"""The command-line front end: argument checks and exit codes."""

import pytest

from nsx import cli


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


def test_eval_skips_an_overflowing_object(tmp_path, capsys):
    path = tmp_path / "big.nsx"
    path.write_text("chart C(x)\nconst k = exp(exp(exp(x)))\nconst h = x + 1\n")
    assert cli.main(["eval", str(path), "--at", "x=9"]) == 0
    assert capsys.readouterr().out == "k: skipped (math range error)\nh = 10\n"


def test_eval_names_the_line_of_an_elaboration_error(tmp_path, capsys):
    path = tmp_path / "twice.nsx"
    path.write_text("chart C(x, y)\nform w on C = d(x) /\\ d(y)\nparam w\n")
    assert cli.main(["eval", str(path), "--at", "x=1,y=1"]) == 2
    assert capsys.readouterr().err == "error: line 3: 'w' is already defined\n"
