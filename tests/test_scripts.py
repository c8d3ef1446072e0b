"""The analysis scripts under scripts/ run to completion against this nsx.

They elaborate suite scenarios and read the scope by name, so a change
to the elaborator's API must keep them working.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["degeneracy_profile.py"],
        ["contact_latitude_scan.py", "--constants", "5", "--steps", "64"],
    ],
    ids=["degeneracy_profile", "contact_latitude_scan"],
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
