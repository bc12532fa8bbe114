"""Package-level invariants: the cell tables, the Monte-Carlo reports and
the sample dump the CLI writes stay byte for byte the recorded ones, and
the package version is the released one.

A deliberate change to a file under tests/golden/ is logged in CHANGES.md
with the reason the numbers moved.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

import pufsec
from pufsec.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("table_id", range(3, 9))
def test_cell_table_matches_golden(table_id):
    res = CliRunner().invoke(main, ["--format", "csv", "table", "--id",
                                    str(table_id), "--compare"],
                             catch_exceptions=False)
    assert res.exit_code == 0
    assert res.stdout_bytes == (GOLDEN / f"table_{table_id}.csv").read_bytes()


@pytest.mark.parametrize("golden,control", [
    ("simulate_8.json", []),
    ("simulate_8_center_distance.json",
     ["--negative-control", "center-distance"])])
def test_simulate_matches_golden(golden, control):
    # the Monte-Carlo report: counts, matrix, W histograms, plug-in
    # informations and per-level KS results of one fixed Philox stream
    res = CliRunner().invoke(main, ["--seed", "7", "--format", "json",
                                    "simulate", "--levels", "8", "--samples",
                                    "200000", *control],
                             catch_exceptions=False)
    assert res.exit_code == 0
    assert res.stdout_bytes == (GOLDEN / golden).read_bytes()


def test_dump_csv_matches_golden(tmp_path):
    # the (S, W, S~) triples --dump-csv writes, row format included
    path = tmp_path / "dump.csv"
    res = CliRunner().invoke(main, ["--seed", "7", "simulate", "--levels",
                                    "8", "--samples", "20000", "--dump-csv",
                                    str(path)],
                             catch_exceptions=False)
    assert res.exit_code == 0
    assert path.read_bytes() == (GOLDEN / "simulate_8_dump.csv").read_bytes()


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert pufsec.__version__ == meta["project"]["version"]
