"""Golden records: the byte-exact stdout and exit code of every subcommand.

``tests/golden/cli.json`` maps each command line to the exit code and the
stdout that ``moduliq.cli.run`` gives for it: the ``--json`` record and the
default text of every subcommand (every ``choices`` value included), plus
``moduliq --help`` and each ``moduliq <sub> --help``.  These records are the
output contract of the command line; a refactor must leave them unchanged.

Regenerate (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
COLUMNS = "80"  # argparse wraps --help text to the terminal width

SUBCOMMANDS = (
    "lattice", "theta", "weil", "dimension", "eisenstein", "obstruction",
    "borcherds", "quasi-pullback", "ma-input", "kirwan", "betti", "ledger",
    "t9", "kequiv", "luna", "fixtures",
)

RECORDS = (
    "lattice --name L_dm --pairing-table",
    "lattice --name E8",
    "theta --lattice E6 --coset 1 --prec 3",
    "theta --lattice A2",
    "weil",
    "weil --lattice L_dm --dual",
    "dimension",
    "dimension --weight 12 --lattice E8",
    "eisenstein --weight 2 --label 1,0",
    "eisenstein --weight 6 --label 0,1",
    "eisenstein --weight 10 --label 1,0",
    "eisenstein --weight 10 --label 1,2 --prec 20",
    "obstruction",
    "obstruction --prec 14",
    "borcherds",
    "borcherds --input ma",
    "borcherds --input delta",
    "borcherds --input e4delta",
    "borcherds --input e4delta --prec 4",
    "quasi-pullback --lattice E6+A2",
    "quasi-pullback --lattice E8",
    "ma-input",
    "ma-input --prec 4",
    "kirwan",
    "betti --space MK",
    "betti --space tor",
    "betti --space boundary",
    "betti --space IH_BB",
    "ledger",
    "t9",
    "kequiv",
    "luna",
    "fixtures",
)

CASES = (
    ["", "--help"]
    + [f"{sub} --help" for sub in SUBCOMMANDS]
    + [line for rec in RECORDS for line in (rec, rec + " --json")]
)


def record(line):
    """(exit code, stdout) of one command line, run in this process."""
    import contextlib
    import io

    from moduliq.cli import run

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _, code = run(line.split())
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="ascii"))


def test_golden_covers_every_case(golden):
    assert list(golden) == CASES


@pytest.mark.parametrize("line", CASES)
def test_golden_record(line, golden, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    code, out = record(line)
    assert {"code": code, "stdout": out} == golden[line]


def test_out_file_matches_json_stdout(tmp_path, golden):
    target = tmp_path / "t9.json"
    code, _ = record(f"t9 --out {target}")
    assert code == 0
    assert target.read_text(encoding="ascii") == golden["t9 --json"]["stdout"]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    data = {}
    for case in CASES:
        code, out = record(case)
        data[case] = {"code": code, "stdout": out}
        print(f"{code} {case}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(data, indent=1, ensure_ascii=True) + "\n", encoding="ascii")
