"""Command-line front end: single-query rates and cell counts, full table
reproduction, converse security audits, Monte-Carlo runs, and quantizer
optimization."""

from __future__ import annotations

import json
import sys

import click

from .stats import DomainError, PufModel
from .quantizer import make_equidistant, make_equiprobable
from .channel import AttackerSpec
from . import bounds, optimize as opt_mod, sim, tables

STRATEGIES = ("equiprobable", "equidistant", "optimized")


def _fail(msg: str):
    raise click.UsageError(msg)


def _emit(ctx, text: str):
    """Print text, newline-terminated, and write the same bytes to --out."""
    if not text.endswith("\n"):
        text += "\n"
    out = ctx.obj["out"]
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    click.echo(text, nl=False)


def _model(ctx) -> PufModel:
    return ctx.obj["model"]


def _quantizer(ctx, levels, strategy, attacker=None, step=None):
    model = _model(ctx)
    if levels < 2:
        _fail("--levels must be >= 2")
    if strategy == "equiprobable":
        return make_equiprobable(model, levels)
    if strategy == "equidistant":
        return make_equidistant(
            model, levels,
            step if step is not None else tables.FIXED_RANGE / levels)
    if attacker is None:
        _fail("--strategy optimized needs an attacker objective")
    return tables.optimized_quantizer(model, levels, attacker,
                                      ctx.obj["nodes"]).quantizer


def _attacker(kind, p_d, p_a):
    if kind == "digital":
        return AttackerSpec("digital", p_d=p_d)
    if p_a is None:
        _fail("--pa is required for the analog attacker")
    return AttackerSpec("analog", p_d=p_d, p_a=p_a)


def _quadrature_fields(summary) -> dict:
    """Record fields of a channel summary's quadrature diagnostics."""
    m = summary.metadata
    return {"quadrature_delta": m["refinement_delta"],
            "quadrature_mi_delta": m["mi_refinement_delta"],
            "quadrature_nodes": m["nodes_used"],
            "quadrature_warning": m["quadrature_warning"]}


def _render_record(ctx, record: dict, cap: int = tables.CELL_CAP) -> str:
    """A query record as JSON, CSV or aligned lines; a cell count of None
    reads ">cap", the cap the query searched."""
    fmt = ctx.obj["fmt"]
    if fmt == "json":
        return json.dumps(record, indent=2, sort_keys=True)
    vals = [tables.format_cell(v, fmt, cap) if isinstance(v, (int, float))
            or v is None else str(v) for v in record.values()]
    if fmt == "csv":
        return ",".join(record) + "\n" + ",".join(vals)
    width = max(len(k) for k in record)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in zip(record, vals))


class _Command(click.Command):
    """Reports a DomainError as a usage error: exit 2 with the message
    under the command's usage line, never a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except DomainError as e:
            raise click.UsageError(str(e), ctx) from None


class _Group(_Command, click.Group):
    command_class = _Command


@click.group(cls=_Group)
@click.option("--sigma-p", default=2241.0, show_default=True,
              help="PUF response standard deviation.")
@click.option("--sigma-n", default=129.0, show_default=True,
              help="Reconstruction noise standard deviation.")
@click.option("--nodes", default=128, show_default=True,
              help="Cap on the Gauss-Legendre nodes for helper-data "
              "averaging: rules double from 16 nodes up to this count and "
              "the first that agrees with its half rule is used; the "
              "reported quadrature deltas compare the two.")
@click.option("--format", "fmt", default="markdown", show_default=True,
              type=click.Choice(["markdown", "csv", "json"]))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Also write the output to this file.")
@click.option("--seed", default=0, show_default=True,
              help="Seed for the simulate subcommand.")
@click.pass_context
def main(ctx, sigma_p, sigma_n, nodes, fmt, out, seed):
    """Secret-key rates, finite-length cell counts, and security audits
    for quantized Gaussian PUF cells with zero-leakage helper data."""
    model = PufModel(sigma_p, sigma_n)
    if nodes < 16:
        _fail("--nodes must be >= 16")
    ctx.obj = {"model": model, "nodes": nodes, "fmt": fmt, "out": out,
               "seed": seed}


@main.command()
@click.option("--attacker", type=click.Choice(["digital", "analog"]),
              required=True)
@click.option("--pd", "p_d", type=float, required=True,
              help="Fraction of cells the attacker destroys.")
@click.option("--pa", "p_a", type=float, default=None,
              help="Analog attacker's larger destroyed fraction.")
@click.option("--levels", type=int, default=4, show_default=True)
@click.option("--strategy", type=click.Choice(STRATEGIES),
              default="equiprobable", show_default=True)
@click.option("--step", type=float, default=None,
              help="Equidistant step (default: 20000 / levels).")
@click.pass_context
def rate(ctx, attacker, p_d, p_a, levels, strategy, step):
    """Asymptotic secret-key rate in bits per PUF cell."""
    att = _attacker(attacker, p_d, p_a)
    q = _quantizer(ctx, levels, strategy, att, step)
    s = bounds.summarize_channel(q, _model(ctx), nodes=ctx.obj["nodes"])
    record = {"attacker": attacker, "levels": levels,
              "strategy": strategy, "p_d": p_d}
    if attacker == "digital":
        record["rate"] = bounds.asymptotic_rate_digital(s, p_d=p_d)
    else:
        lo, hi = bounds.asymptotic_rate_analog(s, p_d=p_d, p_a=p_a)
        record.update({"p_a": p_a, "rate_lower": lo, "rate_upper": hi})
    record.update(_quadrature_fields(s))
    _emit(ctx, _render_record(ctx, record))


@main.command()
@click.option("--attacker", type=click.Choice(["digital", "analog"]),
              required=True)
@click.option("--pd", "p_d", type=float, required=True)
@click.option("--pa", "p_a", type=float, default=None)
@click.option("--levels", type=int, default=4, show_default=True)
@click.option("--strategy", type=click.Choice(STRATEGIES),
              default="equiprobable", show_default=True)
@click.option("--step", type=float, default=None)
@click.option("--eps", type=float, default=1e-6, show_default=True,
              help="Tolerated key-reconstruction failure probability.")
@click.option("--security", type=float, required=True,
              help="Security level lambda in bits (delta = 2^-lambda).")
@click.option("--cap", type=int, default=tables.CELL_CAP, show_default=True)
@click.pass_context
def cells(ctx, attacker, p_d, p_a, levels, strategy, step, eps, security,
          cap):
    """Minimum PUF cell counts: achievability and converse."""
    if security < 1:
        _fail("--security must be >= 1 bit")
    att = _attacker(attacker, p_d, p_a)
    q = _quantizer(ctx, levels, strategy, att, step)
    query = bounds.BoundQuery(attacker=att, quantizer=q, epsilon=eps,
                              security_bits=security, n=None)
    summary = bounds.summarize_channel(q, _model(ctx), nodes=ctx.obj["nodes"])
    ach = bounds.min_cells(query, "achievability", cap, summary=summary)
    conv = bounds.min_cells(query, "converse", cap, summary=summary)
    record = {"attacker": attacker, "levels": levels, "strategy": strategy,
              "p_d": p_d, "epsilon": eps, "security_bits": security,
              "cells_ach": ach, "cells_conv": conv}
    if attacker == "analog":
        record["p_a"] = p_a
    record.update(_quadrature_fields(summary))
    _emit(ctx, _render_record(ctx, record, cap))


def _parse_overrides(pairs):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            _fail(f"override {pair!r} is not key=value")
        k, v = pair.split("=", 1)
        key = {"pd": "p_d", "pa": "p_a", "eps": "epsilon"}.get(k, k)
        try:
            if key == "levels":
                out[key] = [int(x) for x in v.split(";")]
            else:
                out[key] = float(v)
        except ValueError:
            _fail(f"override {pair!r} has a non-numeric value")
    return out


@main.command()
@click.option("--id", "table_id", type=int, required=True,
              help="Table number, 1-8.")
@click.option("--compare", is_flag=True,
              help="Append published reference values and deviations.")
@click.option("--override", multiple=True,
              help="Parameter override key=value (pd, pa, eps, levels).")
@click.pass_context
def table(ctx, table_id, compare, override):
    """Reproduce one of the eight published tables."""
    spec = tables.TableSpec(table_id, _parse_overrides(override))
    data = tables.generate_table(spec, _model(ctx), nodes=ctx.obj["nodes"],
                                 compare=compare)
    _emit(ctx, tables.render(data, ctx.obj["fmt"]))


@main.command()
@click.option("--cells", "n", type=int, required=True,
              help="Number of PUF cells the design uses.")
@click.option("--levels", type=int, default=8, show_default=True)
@click.option("--strategy", type=click.Choice(STRATEGIES),
              default="equiprobable", show_default=True)
@click.option("--attacker", type=click.Choice(["digital", "analog"]),
              default="digital", show_default=True)
@click.option("--pd", "p_d", type=float, default=0.18, show_default=True)
@click.option("--pa", "p_a", type=float, default=None)
@click.option("--eps", type=float, default=1e-6, show_default=True)
@click.option("--security", type=float, default=128, show_default=True)
@click.pass_context
def audit(ctx, n, levels, strategy, attacker, p_d, p_a, eps, security):
    """Check a claimed security level against the converse bound.

    Exit code 0 when the cell count can support the claim, 1 when the
    converse proves it cannot."""
    if n < 1:
        _fail("--cells must be >= 1")
    if security < 1:
        _fail("--security must be >= 1 bit")
    att = _attacker(attacker, p_d, p_a)
    q = _quantizer(ctx, levels, strategy, att)
    query = bounds.BoundQuery(attacker=att, quantizer=q, epsilon=eps,
                              security_bits=security, n=n)
    summary = bounds.summarize_channel(q, _model(ctx), nodes=ctx.obj["nodes"])
    cap = max(10 * n, 10 ** 6)
    conv = bounds.min_cells(query, "converse", cap, summary=summary)
    feasible = conv is not None and n >= conv
    record = {"cells": n, "levels": levels, "strategy": strategy,
              "attacker": attacker, "p_d": p_d, "epsilon": eps,
              "security_bits": security, "converse_min_cells": conv,
              "gap": None if conv is None else n - conv,
              "verdict": "FEASIBLE" if feasible else "INFEASIBLE",
              **_quadrature_fields(summary)}
    _emit(ctx, _render_record(ctx, record, cap))
    if not feasible:
        sys.exit(1)


@main.command()
@click.option("--levels", type=int, default=4, show_default=True)
@click.option("--strategy", type=click.Choice(STRATEGIES[:2]),
              default="equiprobable", show_default=True)
@click.option("--step", type=float, default=None)
@click.option("--samples", type=int, default=1_000_000, show_default=True)
@click.option("--seed", "seed", type=int, default=None,
              help="Overrides the global --seed for this run.")
@click.option("--attacker", type=click.Choice(["digital", "analog"]),
              default=None)
@click.option("--pd", "p_d", type=float, default=None)
@click.option("--pa", "p_a", type=float, default=None)
@click.option("--negative-control", "negative",
              type=click.Choice(["center-distance"]), default=None,
              help="Run the leakage test with the broken helper scheme.")
@click.option("--dump-csv", type=click.Path(dir_okay=False), default=None,
              help="Write (S, W, S~) sample triples (capped at 1e6 rows).")
@click.pass_context
def simulate(ctx, levels, strategy, step, samples, seed, attacker, p_d, p_a,
             negative, dump_csv):
    """Monte-Carlo run of the enrollment/reconstruction pipeline."""
    att = _attacker(attacker, p_d, p_a) if attacker else None
    q = _quantizer(ctx, levels, strategy, att, step)
    use_seed = ctx.obj["seed"] if seed is None else seed
    cfg = sim.SimConfig(_model(ctx), q, samples=samples, seed=use_seed,
                        attacker=att)
    payload = json.loads(sim.run_simulation(cfg).to_json())
    helper = negative or "zero-leakage"
    payload["leakage_test"] = {
        "helper": helper, "per_level": sim.leakage_test(cfg, helper=helper)}
    if dump_csv:
        _dump_samples(cfg, dump_csv)
    _emit(ctx, json.dumps(payload, sort_keys=True,
                          indent=2 if ctx.obj["fmt"] == "markdown" else None))


def _dump_samples(cfg, path, cap=1_000_000):
    # chunk by chunk, as sim does: one call on all rows would hold (rows, N)
    # temporaries at once
    rows = min(cfg.samples, cap)
    with open(path, "w") as fh:
        fh.write("s,w,s_tilde\n")
        for start in range(0, rows, sim._CHUNK):
            s, w, st, _ = sim._simulate_chunk(
                cfg, start, min(sim._CHUNK, rows - start))
            fh.writelines(map("{},{:.6g},{}\n".format,
                              s.tolist(), w.tolist(), st.tolist()))


@main.command("optimize")
@click.option("--attacker", type=click.Choice(["digital", "analog"]),
              required=True)
@click.option("--pd", "p_d", type=float, required=True)
@click.option("--pa", "p_a", type=float, default=None)
@click.option("--levels", type=int, default=4, show_default=True)
@click.option("--budget", type=int, default=2000, show_default=True)
@click.pass_context
def optimize_cmd(ctx, attacker, p_d, p_a, levels, budget):
    """Search for the rate-maximizing input quantizer."""
    att = _attacker(attacker, p_d, p_a)
    res = opt_mod.optimize_quantizer(
        model=_model(ctx), levels=levels, objective=att, budget=budget,
        nodes=ctx.obj["nodes"])
    record = {"attacker": attacker, "levels": levels, "p_d": p_d,
              "rate": res.rate, "evaluations": res.evaluations,
              "budget_exhausted": res.budget_exhausted,
              "quantizer": res.quantizer.to_dict()}
    if attacker == "analog":
        record["p_a"] = p_a
    _emit(ctx, json.dumps(record, sort_keys=True,
                          indent=2 if ctx.obj["fmt"] == "markdown" else None))


if __name__ == "__main__":
    main()
