"""Command-line front end: single-query rates and cell counts, full table
reproduction, converse security audits, Monte-Carlo runs, and quantizer
optimization."""

from __future__ import annotations

import json
import sys

import click

from .stats import DomainError, PufModel
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


def _emit_json(ctx, payload: dict):
    """JSON whatever --format is, indented under markdown."""
    _emit(ctx, json.dumps(payload, sort_keys=True,
                          indent=2 if ctx.obj["fmt"] == "markdown" else None))


def _model(ctx) -> PufModel:
    return ctx.obj["model"]


def _attacker(kind, p_d, p_a):
    if kind == "analog" and p_a is None:
        _fail("--pa is required for the analog attacker")
    return AttackerSpec(kind, p_d=p_d, p_a=p_a)


def _erasure_fields(att: AttackerSpec) -> dict:
    """Record fields of the erased fractions: p_d, then the analog p_a."""
    return {"p_d": att.p_d, **({} if att.p_a is None else {"p_a": att.p_a})}


def _quadrature_fields(summary) -> dict:
    """Record fields of a channel summary's quadrature diagnostics."""
    m = summary.metadata
    return {"quadrature_delta": m["refinement_delta"],
            "quadrature_mi_delta": m["mi_refinement_delta"],
            "quadrature_nodes": m["nodes_used"],
            "quadrature_warning": m["quadrature_warning"]}


# record fields holding a searched cell count, where None means none <= cap
_CELL_COUNTS = ("cells_ach", "cells_conv", "converse_min_cells")


def _render_record(ctx, record: dict,
                   cap: int = bounds.LOG2_CAP_DEFAULT) -> str:
    """A query record as JSON, CSV or aligned lines; a cell count of None
    reads ">cap", the cap the query searched, and any other None (the
    audit's gap when there is no count) reads as absent: "-" in markdown,
    empty in CSV."""
    fmt = ctx.obj["fmt"]
    if fmt == "json":
        return json.dumps(record, indent=2, sort_keys=True)

    def show(key, v):
        if v is None and key not in _CELL_COUNTS:
            return "-" if fmt == "markdown" else ""
        if v is None or isinstance(v, (int, float)):
            return tables.format_cell(v, fmt, cap)
        return str(v)

    vals = [show(k, v) for k, v in record.items()]
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
@click.option("--sigma-p", default=PufModel.sigma_p, show_default=True,
              help="PUF response standard deviation.")
@click.option("--sigma-n", default=PufModel.sigma_n, show_default=True,
              help="Reconstruction noise standard deviation.")
@click.option("--format", "fmt", default="markdown", show_default=True,
              type=click.Choice(["markdown", "csv", "json"]))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Also write the output to this file.")
@click.option("--seed", default=0, show_default=True,
              help="Seed for the simulate subcommand.")
@click.pass_context
def main(ctx, sigma_p, sigma_n, fmt, out, seed):
    """Secret-key rates, finite-length cell counts, and security audits
    for quantized Gaussian PUF cells with zero-leakage helper data."""
    ctx.obj = {"model": PufModel(sigma_p, sigma_n), "fmt": fmt, "out": out,
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
              help=f"Equidistant step (default: {tables.FIXED_RANGE:g} "
              "/ levels).")
@click.pass_context
def rate(ctx, attacker, p_d, p_a, levels, strategy, step):
    """Asymptotic secret-key rate in bits per PUF cell."""
    att = _attacker(attacker, p_d, p_a)
    s = tables.summarize_strategy(_model(ctx), levels, strategy, att,
                                  step=step)
    record = {"attacker": attacker, "levels": levels,
              "strategy": strategy, **_erasure_fields(att)}
    lo, hi = bounds.asymptotic_rate(s, att)
    if attacker == "digital":
        record["rate"] = lo
    else:
        record.update({"rate_lower": lo, "rate_upper": hi})
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
@click.option("--cap", type=int, default=bounds.LOG2_CAP_DEFAULT,
              show_default=True)
@click.pass_context
def cells(ctx, attacker, p_d, p_a, levels, strategy, step, eps, security,
          cap):
    """Minimum PUF cell counts: achievability and converse."""
    bounds._check_eps_lambda(eps, security)
    bounds._check_cap(cap)
    att = _attacker(attacker, p_d, p_a)
    summary = tables.summarize_strategy(_model(ctx), levels, strategy, att,
                                        step=step)
    query = bounds.BoundQuery(attacker=att, quantizer=summary.quantizer,
                              epsilon=eps, security_bits=security, n=None)
    ach = bounds.min_cells(query, "achievability", cap, summary=summary)
    conv = bounds.min_cells(query, "converse", cap, summary=summary)
    record = {"attacker": attacker, "levels": levels, "strategy": strategy,
              **_erasure_fields(att), "epsilon": eps,
              "security_bits": security, "cells_ach": ach, "cells_conv": conv}
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
    data = tables.generate_table(spec, _model(ctx), compare=compare)
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
    bounds._check_n(n)
    bounds._check_eps_lambda(eps, security)
    att = _attacker(attacker, p_d, p_a)
    summary = tables.summarize_strategy(_model(ctx), levels, strategy, att)
    query = bounds.BoundQuery(attacker=att, quantizer=summary.quantizer,
                              epsilon=eps, security_bits=security, n=n)
    cap = max(10 * n, 10 ** 6)
    conv = bounds.min_cells(query, "converse", cap, summary=summary)
    feasible = conv is not None and n >= conv
    record = {"cells": n, "levels": levels, "strategy": strategy,
              "attacker": attacker, **_erasure_fields(att), "epsilon": eps,
              "security_bits": security, "converse_min_cells": conv,
              "gap": None if conv is None else n - conv,
              "verdict": "FEASIBLE" if feasible else "INFEASIBLE"}
    record.update(_quadrature_fields(summary))
    _emit(ctx, _render_record(ctx, record, cap))
    if not feasible:
        sys.exit(1)


@main.command()
@click.option("--levels", type=int, default=4, show_default=True)
@click.option("--strategy", type=click.Choice(STRATEGIES[:2]),
              default="equiprobable", show_default=True)
@click.option("--step", type=float, default=None)
@click.option("--samples", type=int, default=1_000_000, show_default=True)
@click.option("--negative-control", "negative",
              type=click.Choice(["center-distance"]), default=None,
              help="Run the leakage test with the broken helper scheme.")
@click.option("--dump-csv", type=click.Path(dir_okay=False), default=None,
              help="Write (S, W, S~) sample triples (capped at 1e6 rows).")
@click.pass_context
def simulate(ctx, levels, strategy, step, samples, negative, dump_csv):
    """Monte-Carlo run of the enrollment/reconstruction pipeline."""
    q = tables.make_quantizer(_model(ctx), levels, strategy, step=step)
    cfg = sim.SimConfig(_model(ctx), q, samples=samples, seed=ctx.obj["seed"])
    payload = json.loads(sim.run_simulation(cfg).to_json())
    helper = negative or "zero-leakage"
    payload["leakage_test"] = {
        "helper": helper, "per_level": sim.leakage_test(cfg, helper=helper)}
    if dump_csv:
        _dump_samples(cfg, dump_csv)
    _emit_json(ctx, payload)


def _dump_samples(cfg, path, cap=1_000_000):
    s, w, st = sim.decisions(cfg, min(cfg.samples, cap))
    with open(path, "w") as fh:
        fh.write("s,w,s_tilde\n")
        # in slices, so that the formatted rows are never all alive at once
        step = 65_536
        for k in range(0, len(s), step):
            blk = slice(k, k + step)
            fh.writelines(map("{},{:.6g},{}\n".format, s[blk].tolist(),
                              w[blk].tolist(), st[blk].tolist()))


@main.command("optimize")
@click.option("--attacker", type=click.Choice(["digital", "analog"]),
              required=True)
@click.option("--pd", "p_d", type=float, required=True)
@click.option("--pa", "p_a", type=float, default=None)
@click.option("--levels", type=int, default=4, show_default=True)
@click.option("--budget", type=int, default=None,
              help="Objective evaluations [default: as --strategy optimized].")
@click.pass_context
def optimize_cmd(ctx, attacker, p_d, p_a, levels, budget):
    """Search for the rate-maximizing input quantizer."""
    att = _attacker(attacker, p_d, p_a)
    res = opt_mod.optimize_quantizer(
        model=_model(ctx), levels=levels, objective=att, budget=budget)
    record = {"attacker": attacker, "levels": levels, **_erasure_fields(att),
              "rate": res.rate, "evaluations": res.evaluations,
              "budget_exhausted": res.budget_exhausted,
              "quantizer": res.quantizer.to_dict()}
    _emit_json(ctx, record)


if __name__ == "__main__":
    main()
