import inspect
import json

import click
import pytest
from click.testing import CliRunner

from pufsec import bounds, channel, optimize, tables
from pufsec.cli import main
from pufsec.stats import PufModel


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestRate:
    def test_digital_published_value(self, runner):
        res = run(runner, "--format", "json", "rate", "--attacker",
                  "digital", "--pd", "0.18", "--levels", "4", "--strategy",
                  "equiprobable")
        assert res.exit_code == 0
        assert json.loads(res.output)["rate"] == pytest.approx(0.360,
                                                               abs=0.004)
        human = run(runner, "rate", "--attacker", "digital", "--pd", "0.18",
                    "--levels", "4")
        assert "0.360" in human.output

    def test_zero_pd_zero_rate(self, runner):
        res = run(runner, "--format", "json", "rate", "--attacker", "digital",
                  "--pd", "0", "--levels", "8")
        assert res.exit_code == 0
        assert json.loads(res.output)["rate"] == 0.0

    def test_analog_lower_bound(self, runner):
        res = run(runner, "--format", "json", "rate", "--attacker", "analog",
                  "--pd", "0.18", "--pa", "0.36", "--levels", "8")
        data = json.loads(res.output)
        assert data["rate_lower"] == pytest.approx(0.524, abs=0.006)

    def test_analog_without_pa_is_usage_error(self, runner):
        res = run(runner, "rate", "--attacker", "analog", "--pd", "0.18")
        assert res.exit_code == 2
        assert "--pa" in res.output

    def test_bad_pd_names_flag(self, runner):
        res = run(runner, "rate", "--attacker", "digital", "--pd", "1.5")
        assert res.exit_code == 2
        assert "p_d" in res.output


BAD_ATTACKERS = [
    ("digital", "1.5", None), ("digital", "-0.1", None),
    ("analog", "0.36", "0.18"), ("analog", "0.18", "1.2"),
    # p_a does not apply to the digital attacker, so it is not dropped
    ("digital", "0.18", "0.9"),
]


@pytest.mark.parametrize("command", ["rate", "cells", "audit"])
@pytest.mark.parametrize("kind,p_d,p_a", BAD_ATTACKERS)
def test_bad_pd_pa_is_usage_error(runner, command, kind, p_d, p_a):
    args = [command, "--attacker", kind, "--pd", p_d]
    if p_a is not None:
        args += ["--pa", p_a]
    if command == "cells":
        args += ["--security", "128"]
    elif command == "audit":
        args += ["--cells", "1000"]
    res = run(runner, *args)            # a traceback would raise here
    assert res.exit_code == 2
    assert "Error:" in res.output


EQUIDISTANT = ["--strategy", "equidistant"]
DOMAIN_ERRORS = {
    "rate-step": ["rate", "--attacker", "digital", "--pd", "0.18",
                  *EQUIDISTANT, "--step", "-1"],
    "cells-step": ["cells", "--attacker", "digital", "--pd", "0.18",
                   "--security", "128", *EQUIDISTANT, "--step", "-1"],
    "simulate-step": ["simulate", "--samples", "1000", *EQUIDISTANT,
                      "--step", "-1"],
    "cells-huge-step": ["cells", "--attacker", "digital", "--pd", "0.18",
                        "--security", "128", *EQUIDISTANT, "--step", "1e9",
                        "--levels", "8"],
    # audit's exit 1 means INFEASIBLE, so a crash must not end there
    "audit-empty-tail": ["--sigma-p", "1", "audit", "--cells", "1000",
                         *EQUIDISTANT, "--levels", "64"],
    "bad-sigma-p": ["--sigma-p", "-1", "rate", "--attacker", "digital",
                    "--pd", "0.18"],
    "cells-cap-zero": ["cells", "--attacker", "digital", "--pd", "0.18",
                       "--levels", "4", "--security", "128", "--cap", "0"],
    "cells-cap-negative": ["cells", "--attacker", "digital", "--pd", "0.18",
                           "--levels", "4", "--security", "128", "--cap",
                           "-5"],
    # --step 0 is an error, not the default step
    "rate-step-zero": ["rate", "--attacker", "digital", "--pd", "0.18",
                       *EQUIDISTANT, "--step", "0"],
    "cells-step-zero": ["cells", "--attacker", "digital", "--pd", "0.18",
                        "--security", "128", *EQUIDISTANT, "--step", "0"],
    "simulate-step-zero": ["simulate", "--samples", "1000", *EQUIDISTANT,
                           "--step", "0"],
    "global-seed": ["--seed", "-1", "simulate", "--levels", "8",
                    "--samples", "1000"],
    # levels < 2 is the quantizer constructors' DomainError
    "rate-levels-1": ["rate", "--attacker", "digital", "--pd", "0.18",
                      "--levels", "1"],
    "cells-levels-1": ["cells", "--attacker", "digital", "--pd", "0.18",
                       "--security", "128", "--levels", "1"],
    "audit-levels-1": ["audit", "--cells", "1000", "--levels", "1"],
    "simulate-levels-1": ["simulate", "--samples", "1000", "--levels", "1"],
    "rate-optimized-levels-1": ["rate", "--attacker", "digital", "--pd",
                                "0.18", "--strategy", "optimized",
                                "--levels", "1"],
    "simulate-equidistant-levels-0": ["simulate", "--samples", "1000",
                                      *EQUIDISTANT, "--levels", "0"],
    # the digital cell tables have no p_a to override
    "table-digital-pa": ["table", "--id", "3", "--override", "pa=0.9"],
    # a step applies to the equidistant strategy only, so it is not dropped
    "rate-equiprobable-step": ["rate", "--attacker", "digital", "--pd",
                               "0.18", "--levels", "8", "--strategy",
                               "equiprobable", "--step", "5"],
    "cells-equiprobable-step": ["cells", "--attacker", "digital", "--pd",
                                "0.18", "--security", "128", "--strategy",
                                "equiprobable", "--step", "5"],
    "simulate-equiprobable-step": ["simulate", "--samples", "1000",
                                   "--strategy", "equiprobable", "--step",
                                   "5"],
    "rate-optimized-step": ["rate", "--attacker", "digital", "--pd", "0.18",
                            "--levels", "4", "--strategy", "optimized",
                            "--step", "3"],
}


@pytest.mark.parametrize("args", DOMAIN_ERRORS.values(), ids=DOMAIN_ERRORS)
def test_domain_error_is_usage_error(runner, args):
    res = run(runner, *args)            # a traceback would raise here
    assert res.exit_code == 2
    assert "Error:" in res.output
    assert "Traceback" not in res.output


class TestCells:
    def test_published_cell_counts(self, runner):
        res = run(runner, "--format", "json", "cells", "--attacker",
                  "digital", "--pd", "0.18", "--levels", "8", "--eps",
                  "1e-6", "--security", "128")
        data = json.loads(res.output)
        assert data["cells_ach"] == 1508
        assert data["cells_conv"] == 459

    def test_infeasible_rendered_as_cap(self, runner):
        res = run(runner, "--format", "json", "cells", "--attacker",
                  "analog", "--pd", "0.18", "--pa", "0.36", "--levels", "32",
                  "--strategy", "equiprobable", "--eps", "1e-6",
                  "--security", "128")
        assert json.loads(res.output)["cells_ach"] is None
        res2 = run(runner, "cells", "--attacker", "analog", "--pd", "0.18",
                   "--pa", "0.36", "--levels", "32", "--strategy",
                   "equiprobable", "--eps", "1e-6", "--security", "128")
        assert ">20000" in res2.output

    def test_infeasible_shows_the_searched_cap(self, runner):
        # 1508 and 459 cells lie above a cap of 100, and 1508 above 1000
        res = run(runner, "cells", "--attacker", "digital", "--pd", "0.18",
                  "--levels", "8", "--security", "128", "--cap", "100")
        lines = res.output.splitlines()
        assert "cells_ach            >100" in lines
        assert "cells_conv           >100" in lines
        res = run(runner, "--format", "csv", "cells", "--attacker",
                  "digital", "--pd", "0.18", "--levels", "8", "--security",
                  "128", "--cap", "1000")
        assert ",>1000,459," in res.output

    def test_security_zero_rejected(self, runner):
        res = run(runner, "cells", "--attacker", "digital", "--pd", "0.18",
                  "--levels", "8", "--security", "0")
        assert res.exit_code == 2


@pytest.mark.parametrize("args", [
    ["cells", "--attacker", "digital", "--pd", "0.18", "--security", "128"],
    ["audit", "--cells", "500"],
], ids=["cells", "audit"])
def test_bad_eps_fails_before_the_search(runner, monkeypatch, args):
    # the epsilon rule is checked before the optimizer runs
    calls = []
    monkeypatch.setattr(optimize, "optimize_quantizer",
                        lambda *a, **k: calls.append(a))
    res = run(runner, *args, "--levels", "64", "--strategy", "optimized",
              "--eps", "2")
    assert res.exit_code == 2
    assert "epsilon" in res.output
    assert calls == []


QUERIES = {
    "rate": ["rate", "--attacker", "digital", "--pd", "0.18", "--levels",
             "8"],
    "cells": ["cells", "--attacker", "digital", "--pd", "0.18", "--levels",
              "8", "--security", "128"],
    "audit": ["audit", "--cells", "459", "--levels", "8", "--pd", "0.18",
              "--security", "128"],
}


@pytest.mark.parametrize("args", QUERIES.values(), ids=QUERIES)
def test_summary_at_global_nodes_and_delta_reported(runner, monkeypatch,
                                                    args):
    # every summary the command builds: min_cells takes this one
    summaries = []
    real = bounds.summarize_channel

    def spy(q, model=None, nodes=128):
        summaries.append(real(q, model, nodes))
        return summaries[-1]

    monkeypatch.setattr(bounds, "summarize_channel", spy)
    res = run(runner, "--nodes", "16", "--format", "json", *args)
    assert res.exit_code in (0, 1)
    assert [s.nodes for s in summaries] == [16]
    record = json.loads(res.output)
    assert (record["quadrature_delta"]
            == summaries[0].metadata["refinement_delta"])
    assert (record["quadrature_mi_delta"]
            == summaries[0].metadata["mi_refinement_delta"])
    assert record["quadrature_nodes"] == summaries[0].metadata["nodes_used"]
    assert (record["quadrature_warning"]
            == summaries[0].metadata["quadrature_warning"])


@pytest.mark.parametrize("args,nodes,warning", [
    *((a, 32, False) for a in QUERIES.values()),
    (QUERIES["rate"] + ["--levels", "256", "--strategy", "equidistant"], 128,
     True),
    (["cells", "--strategy", "equidistant", "--step", "10", "--levels", "64",
      "--attacker", "analog", "--pd", "0.18", "--pa", "0.36", "--security",
      "128"], 128, True),
], ids=[*QUERIES, "rate-flagged", "cells-flagged"])
def test_quadrature_nodes_reported(runner, args, nodes, warning):
    # equiprobable N = 8 converges at 32 of the default 128 nodes, far
    # inside the 1e-6 flag; equidistant N = 256 and the 10-wide equidistant
    # N = 64 never converge, run the whole chain and end it above the flag
    # (channel deltas of about 3.5e-5 and 2.3e-4)
    res = run(runner, "--format", "json", *args)
    assert res.exit_code in (0, 1)
    record = json.loads(res.output)
    assert record["quadrature_nodes"] == nodes
    assert record["quadrature_warning"] is warning


@pytest.mark.parametrize("name", QUERIES)
def test_optimized_query_runs_one_quadrature_chain(runner, monkeypatch,
                                                   name):
    # the query's summary is the optimizer's own: the found quantizer goes
    # through one error-controlled chain, whichever module binds it
    real, chains = channel._quadrature, []

    def spy(q, model, nodes):
        chains.append(nodes)
        return real(q, model, nodes)

    for mod in (channel, bounds, optimize, tables):
        if getattr(mod, "_quadrature", None) is real:
            monkeypatch.setattr(mod, "_quadrature", spy)
    res = run(runner, "--format", "json", *QUERIES[name], "--strategy",
              "optimized", "--levels", "4")
    assert res.exit_code in (0, 1)
    assert chains == [128]


class TestTable:
    def test_structure_and_compare(self, runner):
        res = run(runner, "--format", "csv", "table", "--id", "4",
                  "--compare")
        assert res.exit_code == 0
        lines = [l for l in res.output.splitlines() if l]
        assert len(lines) == 7                       # header + 6 level rows
        header = lines[0].split(",")
        assert "ach_128" in header and "ach_128_dev" in header
        # equiprobable digital cells within 1%
        for line in lines[1:]:
            cells = line.split(",")
            devs = [float(d) for d in cells[-6:] if d]
            assert all(abs(d) <= 0.01 for d in devs)

    def test_unknown_id_exits_2(self, runner):
        res = run(runner, "table", "--id", "99")
        assert res.exit_code == 2

    def test_override_pd_zero(self, runner):
        res = run(runner, "--format", "json", "table", "--id", "4",
                  "--override", "pd=0", "--override", "levels=4")
        data = json.loads(res.output)
        (row,) = data["rows"]
        assert all(v is None for v in row["values"])

    @pytest.mark.parametrize("table_id,override", [
        (4, "pd=0.3"), (1, "pa=0.5"), (3, "eps=1e-9")])
    def test_compare_refuses_parameter_override(self, runner, table_id,
                                                override):
        # the published values hold for the published parameters only
        res = run(runner, "--format", "csv", "table", "--id", str(table_id),
                  "--override", override, "--override", "levels=4",
                  "--compare")
        assert res.exit_code == 2
        assert "no override but levels" in res.output

    def test_compare_keeps_levels_override(self, runner):
        res = run(runner, "--format", "csv", "table", "--id", "4",
                  "--override", "levels=4", "--compare")
        assert res.exit_code == 0
        assert res.output.splitlines()[1].startswith("4,1399,606,")

    def test_markdown_rendering(self, runner):
        res = run(runner, "table", "--id", "8", "--override", "levels=2;4")
        assert res.exit_code == 0
        assert res.output.startswith("| levels |")

    def test_markdown_shows_small_rates(self, runner):
        # the equiprobable analog rate is 0.000199 (CSV 0.000199467): three
        # decimals would print it as 0.000, so it gets three digits
        res = run(runner, "table", "--id", "2", "--override", "levels=32",
                  "--override", "pa=0.420339")
        assert res.exit_code == 0
        row = res.output.splitlines()[2].split(" | ")
        assert row[4] == "0.000199"


class TestAudit:
    def test_infeasible_exit_1(self, runner):
        res = run(runner, "audit", "--cells", "128", "--levels", "8",
                  "--pd", "0.18", "--eps", "1e-6", "--security", "100")
        assert res.exit_code == 1
        assert "INFEASIBLE" in res.output
        assert "389" in res.output

    def test_boundary_feasible(self, runner):
        res = run(runner, "audit", "--cells", "459", "--levels", "8",
                  "--pd", "0.18", "--eps", "1e-6", "--security", "128")
        assert res.exit_code == 0
        assert "FEASIBLE" in res.output

    def test_infeasible_shows_the_searched_cap(self, runner):
        # audit searches up to max(10 n, 10^6) cells
        res = run(runner, "audit", "--cells", "1", "--levels", "8",
                  "--security", "1e9")
        assert res.exit_code == 1
        assert "converse_min_cells   >1000000" in res.output.splitlines()

    def test_absent_gap_reads_absent(self, runner):
        # no converse count up to the cap means no gap, not a cell count
        args = ("audit", "--cells", "1", "--levels", "8", "--security",
                "1e9")
        md = run(runner, *args).output.splitlines()
        assert "gap                  -" in md
        csv = run(runner, "--format", "csv", *args).output.splitlines()
        row = dict(zip(csv[0].split(","), csv[1].split(",")))
        assert row["converse_min_cells"] == ">1000000"
        assert row["gap"] == ""
        data = json.loads(run(runner, "--format", "json", *args).output)
        assert data["converse_min_cells"] is None and data["gap"] is None

    def test_huge_n_feasible(self, runner):
        res = run(runner, "audit", "--cells", "1000000", "--levels", "8",
                  "--pd", "0.18", "--eps", "1e-6", "--security", "128")
        assert res.exit_code == 0

    def test_flag_error_exit_2(self, runner):
        res = run(runner, "audit", "--cells", "0")
        assert res.exit_code == 2


class TestSimulate:
    def test_smoke_and_determinism(self, runner):
        args = ("--seed", "7", "simulate", "--levels", "4", "--samples",
                "20000")
        a = run(runner, *args)
        b = run(runner, *args)
        assert a.exit_code == 0
        assert a.output == b.output
        data = json.loads(a.output)
        assert len(data["matrix"]) == 4
        ks = data["leakage_test"]["per_level"]
        assert all(v["p_value"] > 0.01 for v in ks.values()
                   if not v["under_sampled"])

    def test_negative_control_rejects(self, runner):
        res = run(runner, "--seed", "3", "simulate", "--levels", "8",
                  "--strategy", "equidistant", "--samples", "100000",
                  "--negative-control", "center-distance")
        data = json.loads(res.output)
        ks = data["leakage_test"]["per_level"]
        ps = [v["p_value"] for v in ks.values() if not v["under_sampled"]]
        assert ps and all(p < 1e-6 for p in ps)

    def test_dump_csv(self, runner, tmp_path):
        path = tmp_path / "samples.csv"
        res = run(runner, "--seed", "1", "simulate", "--levels", "4",
                  "--samples", "500", "--dump-csv", str(path))
        assert res.exit_code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "s,w,s_tilde"
        assert len(lines) == 501


class TestOptimizeCommand:
    def test_digital_small(self, runner):
        res = run(runner, "--format", "json", "optimize", "--attacker",
                  "digital", "--pd", "0.18", "--levels", "4", "--budget",
                  "150")
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["rate"] == pytest.approx(0.36, abs=0.005)
        assert data["quantizer"]["levels"] == 4

    def test_default_budget_is_the_library_default(self, runner,
                                                   monkeypatch):
        budgets, real = [], optimize.optimize_quantizer

        def spy(*args, budget, **kw):
            budgets.append(budget)
            return real(*args, budget=budget, **kw)

        monkeypatch.setattr(optimize, "optimize_quantizer", spy)
        res = run(runner, "optimize", "--attacker", "digital", "--pd",
                  "0.18", "--levels", "2")
        assert res.exit_code == 0
        assert budgets == [None]

    def test_same_answer_as_optimized_strategy(self, runner):
        # one search at one effort: the command's quantizer and rate are
        # the optimized strategy's, to the bit
        data = json.loads(run(runner, "--format", "json", "optimize",
                              "--levels", "4", "--attacker", "digital",
                              "--pd", "0.18").output)
        att = channel.AttackerSpec("digital", p_d=0.18)
        s = tables.summarize_strategy(PufModel(), 4, "optimized", att)
        assert data["rate"] == bounds.asymptotic_rate(s, att)[0]
        assert (data["quantizer"]["borders"]
                == s.quantizer.inner_borders.tolist())


def test_cli_defaults_are_the_library_defaults():
    # a default the library also defines is read from it, not restated
    def option(command, name):
        param = next(p for p in command.params if p.name == name)
        return param.get_default(click.Context(command))

    def _default(fn, name):
        return inspect.signature(fn).parameters[name].default

    model = PufModel()
    assert option(main, "sigma_p") == model.sigma_p
    assert option(main, "sigma_n") == model.sigma_n
    for fn in (bounds.summarize_channel, tables.summarize_strategy,
               tables.generate_table, optimize.optimize_quantizer):
        assert option(main, "nodes") == _default(fn, "nodes")
    assert (option(main.commands["cells"], "cap")
            == _default(bounds.min_cells, "cap"))
    assert option(main.commands["optimize"], "budget") is None
    assert _default(optimize.optimize_quantizer, "budget") is None


class TestOutputFile:
    def test_out_flag_writes_file(self, runner, tmp_path):
        path = tmp_path / "rate.json"
        res = run(runner, "--format", "json", "--out", str(path), "rate",
                  "--attacker", "digital", "--pd", "0.1", "--levels", "4")
        assert res.exit_code == 0
        assert json.loads(path.read_text())["rate"] == pytest.approx(
            0.2, abs=0.004)

    @pytest.mark.parametrize("args", [
        ["rate", "--attacker", "digital", "--pd", "0.1", "--levels", "4"],
        ["--format", "csv", "table", "--id", "3"],
    ], ids=["rate", "table-3"])
    def test_out_file_holds_the_printed_bytes(self, runner, tmp_path, args):
        path = tmp_path / "out.txt"
        res = run(runner, "--out", str(path), *args)
        assert res.exit_code == 0
        assert path.read_bytes() == res.stdout_bytes
