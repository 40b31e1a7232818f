"""The integer-only commands start without numpy, and load only what they run.

``count`` and ``identity`` run in a fresh interpreter, which then reports
which of a few heavy modules were ever imported; their stdout, stderr and
exit code must match an in-process run of the same argv.  ``enumerate``
runs there too, and loads none of the refutation that only ``lhv`` runs.
``verify`` draws from the standard library's generator, so it loads neither
``numpy.random`` nor the ``secrets`` and ``hashlib`` that numpy's seeding needs.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ghzverify.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules whose load state the wrapper reports.  dataclasses brings in
#: inspect, json is needed by the json output alone, listing by the
#: streamed listings of enumerate and lhv alone, and lhv by lhv alone.
#: No command needs numpy.random, secrets or hashlib.
PROBED = ("numpy", "dataclasses", "inspect", "json", "ghzverify.pauli", "ghzverify.listing",
          "ghzverify.lhv", "numpy.random", "secrets", "hashlib")

#: Runs the CLI, then appends the loaded PROBED modules to stderr as the last line.
WRAPPER = f"""\
import sys
from ghzverify.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print("loaded:", *[name for name in {PROBED!r} if name in sys.modules], file=sys.stderr)
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


@functools.cache
def _fresh_cli(command):
    """(exit code, stdout, stderr, loaded PROBED modules) of one fresh run."""
    proc = _fresh("-c", WRAPPER, *command.split())
    *stderr, marker = proc.stderr.splitlines(keepends=True)
    assert marker.startswith("loaded:")
    return proc.returncode, proc.stdout, "".join(stderr), set(marker.split()[1:])


@pytest.mark.parametrize("command", COMMANDS)
def test_command_runs_without_numpy(capsys, command):
    *result, loaded = _fresh_cli(command)
    assert "numpy" not in loaded
    code = main(command.split())
    captured = capsys.readouterr()
    assert tuple(result) == (code, captured.out, captured.err)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_what_it_runs(command):
    *_, loaded = _fresh_cli(command)
    assert not loaded & {"dataclasses", "inspect", "ghzverify.listing"}
    # the json printers import json; table and csv output never loads it
    assert ("json" in loaded) == ("--format json" in command)
    if command.startswith("count"):
        assert "ghzverify.pauli" not in loaded


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_enumerate_loads_neither_lhv_nor_pauli(capsys, fmt):
    command = f"enumerate --n 6 --pole S --format {fmt}"
    *result, loaded = _fresh_cli(command)
    assert "ghzverify.listing" in loaded
    assert not loaded & {"ghzverify.lhv", "ghzverify.pauli"}
    code = main(command.split())
    captured = capsys.readouterr()
    assert tuple(result) == (code, captured.out, captured.err)


@pytest.mark.parametrize("command", ["verify --n 3", "verify --n 14 --format json"])
def test_verify_draws_without_numpy_random(capsys, command):
    # above 10 qubits the eigen pool is sampled; a fresh process must draw
    # the same values from the seed alone, with no module-level state
    *result, loaded = _fresh_cli(command)
    assert "numpy" in loaded
    assert not loaded & {"numpy.random", "secrets", "hashlib"}
    code = main(command.split())
    captured = capsys.readouterr()
    assert tuple(result) == (code, captured.out, captured.err)


def test_bare_import_leaves_numpy_unloaded():
    proc = _fresh("-c", "import sys, ghzverify; print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n")
