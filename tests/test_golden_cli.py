"""CLI output pinned byte for byte.

tests/data/golden_cli.json holds, for each argv below, the stdout, stderr
and exit code of cli.main.  The test re-runs every call and compares.  A
change that should keep every printed number (a refactor, a removed
option) must leave this file as it is.  The data was written with

    PYTHONPATH=src python tests/test_golden_cli.py

and is rewritten the same way only when an output is meant to change.
"""
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from pntap import cli

GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"

_OFF_GRID = ["--log-x0", "18.3", "--log-x0", "37.5", "--log-x0", "120"]
_BOUND_POINTS = [["--x", "1e30", "--q", "7"],
                 ["--x", "1e30", "--q", "7", "--log-x0", "20"],
                 ["--x", "1e60", "--q", "7", "--log-x0", "150"],
                 ["--x", "1e70", "--q", "7", "--log-x0", "150"],
                 ["--x", "1e60", "--q", "7", "--log-x0", "120"]]

CALLS = [
    ["constants", "--which", "all", "--format", "csv", *chain, *grid]
    for chain in ([], ["--small"], ["--small", "--self-consistent"])
    for grid in ([], _OFF_GRID)
] + [
    ["bound", "--kind", kind, *point, *small]
    for kind in ("pi_ap", "psi_ap", "theta_ap", "psi_chi", "theta_chi")
    for point in _BOUND_POINTS
    for small in ([], ["--small"])
]


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_call(golden):
    assert [g["argv"] for g in golden] == CALLS


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_cli_output_is_unchanged(argv, golden):
    want = next(g for g in golden if g["argv"] == argv)
    assert _run(argv) == want


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([_run(argv) for argv in CALLS], indent=1) + "\n")
