"""The analysis scripts under scripts/ run to completion against this nsx.

They elaborate suite scenarios and read the scope by name, so a change
to the elaborator's API must keep them working.
"""

import importlib.util
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["degeneracy_profile.py"],
        ["contact_latitude_scan.py", "--constants", "5", "--steps", "64"],
        ["code_lines.py", "--files"],
        ["first_pass.py", "--only", "S9", "--processes", "1"],
    ],
    ids=["degeneracy_profile", "contact_latitude_scan", "code_lines", "first_pass"],
)
def test_script_runs(argv, cli_env, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout


def test_code_lines_counts_neither_comments_nor_docstrings(cli_env, tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        '"""A module docstring\n\nover three lines."""\n'
        "\n"
        "# a comment line\n"
        "x = 1  # a trailing comment\n"
        "\n"
        "def f():\n"
        '    """A function docstring."""\n'
        "    return (\n"
        "        x\n"
        "    )\n"
    )
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "code_lines.py"), str(source)],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["5", "total"]


def test_contact_certificate_shows_both_exact_signs(cli_env, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "contact_latitude_scan.py"), "--certify"],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    for k in (5, 10, 20):
        assert f"K = {k}, zero circle" in proc.stdout
    assert proc.stdout.count("(sign +1)") == proc.stdout.count("(sign -1)") == 3
    assert proc.stdout.count("opposite exact signs") == 3


def _load_scan():
    spec = importlib.util.spec_from_file_location("contact_latitude_scan", SCRIPTS / "contact_latitude_scan.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_contact_certificate_needs_opposite_signs(monkeypatch, capsys):
    scan = _load_scan()
    assert scan.certify([5])
    # Two points above the zero circle carry one sign: nothing is certified.
    monkeypatch.setattr(scan, "CERTIFY_T", (Fraction(1, 8), Fraction(1, 4)))
    assert not scan.certify([5])
    assert "no sign change certified" in capsys.readouterr().out
