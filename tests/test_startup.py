"""The integer-only commands start without numpy.

``count`` and ``identity`` run in a fresh interpreter, which then reports
whether numpy was ever imported; their stdout, stderr and exit code must
match an in-process run of the same argv.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ghzverify.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs the CLI, then appends numpy's load state to stderr as the last line.
WRAPPER = """\
import sys
from ghzverify.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""

COMMANDS = [
    "count --n-min 2 --n-max 12",
    "count --n-min 2 --n-max 12 --format json",
    "count --n-min 2 --n-max 12 --format csv",
    "identity --n 6",
    "identity --n 6 --format json",
    "identity --n 40 --subset 1,7,40",
    "identity --n 40 --subset 1,7,40 --format json",
    "identity --n 4 --subset 1,2",  # refused: an even subset exits 2
]


def _fresh(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.mark.parametrize("command", COMMANDS)
def test_command_runs_without_numpy(capsys, command):
    proc = _fresh("-c", WRAPPER, *command.split())
    *stderr, marker = proc.stderr.splitlines(keepends=True)
    assert marker == "numpy loaded: False\n"
    code = main(command.split())
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, "".join(stderr)) == (code, captured.out, captured.err)


def test_bare_import_leaves_numpy_unloaded():
    proc = _fresh("-c", "import sys, ghzverify; print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n")
