"""Import boundaries of the command line: a subcommand loads only the
computation layers it runs, and no subcommand loads ``dataclasses`` (whose
import pulls in inspect, ast and tokenize): the package's records are
namedtuples and ``__slots__`` classes.  Each check starts a fresh
interpreter with ``PYTHONPATH=src``, runs command lines through
``moduliq.cli.run`` and reads ``sys.modules`` afterwards."""

import json
import os
import subprocess
import sys
from pathlib import Path

from moduliq.cli import COMMANDS
from test_golden import RECORDS

SRC = Path(__file__).resolve().parent.parent / "src"

# argv: a JSON list of command lines and a JSON list of watched modules;
# prints [exit codes, loaded modules], the modules being those of the package
# (without the prefix) and the watched ones
_PROBE = """
import contextlib, io, json, sys
import moduliq.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(moduliq.cli.run(argv)[1])
watched = json.loads(sys.argv[2])
loaded = sorted(m.removeprefix("moduliq.") for m in sys.modules
                if m.startswith("moduliq.") or m in watched)
print(json.dumps([codes, loaded]))
"""

# what `import moduliq.cli` needs: the frontend, its scalar parser and the table
# of certified values; every other module of the package is a computation layer
FRONTEND = {"cli", "_rational", "certified"}


def _loaded(*argvs, watched=("dataclasses",)):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argvs), json.dumps(watched)],
        env=env, capture_output=True, text=True, check=True,
    )
    codes, modules = json.loads(proc.stdout)
    return codes, set(modules)


def test_import_loads_no_layer():
    assert _loaded() == ([], FRONTEND)


def test_help_loads_no_layer():
    argvs = [["--help"]] + [[cmd.name, "--help"] for cmd in COMMANDS]
    codes, modules = _loaded(*argvs)
    assert codes == [0] * len(argvs)
    assert modules == FRONTEND


def test_t9_loads_the_ledger_alone():
    # t9, kequiv and ledger together load no scalars, lattices, shortvec,
    # qseries, modforms, borcherds, kirwan or luna, and all three exit 0
    assert _loaded(["t9"], ["kequiv"], ["ledger"]) == ([0, 0, 0], FRONTEND | {"ledger"})


def test_scalars_load_no_dataclasses():
    # CycNum is a plain __slots__ class
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import sys, moduliq.scalars; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_luna_loads_the_slice_layer_alone():
    # none of the lattice or series layers
    assert _loaded(["luna"]) == ([0], FRONTEND | {"luna"})


def test_lattice_and_theta_load_their_layers_alone():
    # every module a process loads it also compiles when no bytecode is
    # cached, so neither command may quietly grow its set of modules
    lattice = ("lattice --name L_dm".split(), "lattice --name L_dm --pairing-table".split())
    assert _loaded(*lattice) == ([0, 0], FRONTEND | {"_linalg", "lattices"})
    theta = ("theta --lattice E6 --coset 1 --prec 3".split(), "theta --lattice A2".split())
    layers = {"_linalg", "lattices", "modforms", "qseries", "scalars", "shortvec"}
    assert _loaded(*theta) == ([0, 0], FRONTEND | layers)


def test_no_subcommand_loads_dataclasses_or_inspect():
    # every golden command line, so every row of COMMANDS, in one interpreter
    argvs = [line.split() for line in RECORDS]
    assert {argv[0] for argv in argvs} == {cmd.name for cmd in COMMANDS}
    codes, modules = _loaded(*argvs, watched=("dataclasses", "inspect"))
    assert codes == [0] * len(argvs)
    assert not modules & {"dataclasses", "inspect"}
