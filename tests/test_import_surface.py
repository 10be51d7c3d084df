"""``import prefnet.cli`` builds its classes without code generation, so it
loads none of ``dataclasses``, ``inspect`` and ``ast``."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints the modules that importing prefnet.cli adds to a bare interpreter's.
PROBE = """\
import sys
before = set(sys.modules)
import prefnet.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_adds_no_dataclasses_inspect_or_ast():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    added = set(done.stdout.split())
    assert "prefnet.cli" in added
    assert added & {"dataclasses", "inspect", "ast"} == set()
