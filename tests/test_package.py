"""Package-level invariants: the cell tables, the Monte-Carlo reports and
the sample dump the CLI writes stay byte for byte the recorded ones, the
package version is the released one, each command loads only the SciPy
subpackages it uses, and every public name and every top-level function
and class has a caller outside the tests.

A deliberate change to a file under tests/golden/ is logged in CHANGES.md
with the reason the numbers moved.
"""

import ast
import json
import os
import subprocess
import sys
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


HEAVY = ("scipy.stats", "scipy.optimize")
LOAD_PROBE = """
import json, sys
from click.testing import CliRunner
from pufsec.cli import main
args = json.loads(sys.argv[1])
if args:
    res = CliRunner().invoke(main, args, catch_exceptions=False)
    assert res.exit_code == 0, res.output
print(json.dumps([m for m in {heavy!r} if m in sys.modules]))
""".format(heavy=HEAVY)


@pytest.mark.parametrize("args,loads,avoids", [
    ([], [], HEAVY),
    (["cells", "--attacker", "digital", "--pd", "0.18", "--levels", "8",
      "--security", "128"], [], HEAVY),
    (["--format", "csv", "table", "--id", "3"], [], HEAVY),
    # scipy.stats itself imports scipy.optimize
    (["simulate", "--levels", "4", "--samples", "2000"], ["scipy.stats"], []),
    (["optimize", "--attacker", "digital", "--pd", "0.18", "--levels", "3",
      "--budget", "10"], ["scipy.optimize"], ["scipy.stats"]),
], ids=["import", "cells", "table-3", "simulate", "optimize"])
def test_commands_load_only_what_they_use(args, loads, avoids):
    # a fresh interpreter per command: importing scipy.stats or
    # scipy.optimize costs most of a cold start, so only the commands that
    # call into them may load them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", LOAD_PROBE, json.dumps(args)],
                         env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(out.stdout))
    assert loaded.issuperset(loads)
    assert loaded.isdisjoint(avoids)


def _referenced_names(path):
    """Names a module refers to (ast.Name ids and ast.Attribute attrs); a
    top-level function or class does not count references to itself."""
    names = set()
    for stmt in ast.parse(path.read_text()).body:
        refs = {n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(stmt)
                if isinstance(n, (ast.Name, ast.Attribute))}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            refs.discard(stmt.name)
        names |= refs
    return names


def _is_click_command(decorator):
    """`@main.command(...)` or `@click.group(...)`: click calls these."""
    return (isinstance(decorator, ast.Call)
            and isinstance(decorator.func, ast.Attribute)
            and decorator.func.attr in ("command", "group"))


def _top_level_defs(path):
    """Names of a module's top-level functions and classes, private ones
    included, except click commands."""
    return {stmt.name for stmt in ast.parse(path.read_text()).body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not any(map(_is_click_command, stmt.decorator_list))}


def test_every_public_name_has_a_non_test_caller():
    # the public package holds no code that only tests call: each exported
    # name, and each top-level function and class of every module, is used
    # by a package module or by the benchmark harness
    modules = sorted((ROOT / "src" / "pufsec").glob("*.py"))
    files = [f for f in modules if f.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*map(_referenced_names, files))
    assert sorted(set(pufsec.__all__) - used) == []
    defs = set().union(*map(_top_level_defs, modules))
    assert sorted(defs - used) == []
