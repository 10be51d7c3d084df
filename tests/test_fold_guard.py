"""The MLP path's sums fold left to right on every supported Python.

``tests/fold_guard.py`` is run under each of ``python3.10``, ``python3.12``
and ``python3.13`` on PATH; an interpreter that does not start (absent, or
a version-manager shim without that version) is skipped.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

GUARD = Path(__file__).resolve().parent / "fold_guard.py"


def _starts(exe: str) -> bool:
    probe = subprocess.run([exe, "-c", "pass"], capture_output=True, timeout=30)
    return probe.returncode == 0


def test_folds_are_left_to_right_on_every_interpreter_that_starts():
    found = [shutil.which(f"python3.{minor}") for minor in (10, 12, 13)]
    interpreters = [exe for exe in found if exe and _starts(exe)]
    if not interpreters:
        pytest.skip("none of python3.10, python3.12, python3.13 starts here")
    for exe in interpreters:
        done = subprocess.run(
            [exe, str(GUARD)], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stdout + done.stderr
