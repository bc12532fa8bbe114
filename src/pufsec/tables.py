"""Reference-table reproduction: parameter sets, live computation, and the
embedded published values used by the --compare flag.

Tables 1-2 are asymptotic key rates for six quantizer/attacker columns;
Tables 3-6 are digital finite-length cell counts (equiprobable quantizers);
Tables 7-8 are the analog counterparts (equiprobable / equidistant).  The
published equidistant columns use a fixed measurement range of +-10000,
i.e. step = 20000 / levels; that convention is reproduced here.
"""

from __future__ import annotations

import dataclasses
import json

from .stats import DomainError, PufModel
from .quantizer import InputQuantizer, make_equidistant, make_equiprobable
from .channel import AttackerSpec
from . import bounds, optimize

FIXED_RANGE = 20000.0          # full-scale measurement range of the reference

RATE_COLUMNS = ("equidistant digital", "equidistant analog",
                "equiprobable digital", "equiprobable analog",
                "optimized digital", "optimized analog")
CELL_COLUMNS = ("ach 128", "conv 128", "ach 192", "conv 192",
                "ach 256", "conv 256")
RATE_LEVELS = (2, 4, 8, 16, 32, 64, 128, 256)
CELL_LEVELS = (2, 4, 8, 16, 32, 64)
SECURITY_LEVELS = (128, 192, 256)

# Parameter sets exactly as published (caption manifest).
CAPTIONS = {
    1: {"kind": "rates", "p_d": 0.1, "p_a": 0.2},
    2: {"kind": "rates", "p_d": 0.18, "p_a": 0.36},
    3: {"kind": "cells", "attacker": "digital", "p_d": 0.1,
        "epsilon": 1e-6, "strategy": "equiprobable"},
    4: {"kind": "cells", "attacker": "digital", "p_d": 0.18,
        "epsilon": 1e-6, "strategy": "equiprobable"},
    5: {"kind": "cells", "attacker": "digital", "p_d": 0.1,
        "epsilon": 1e-9, "strategy": "equiprobable"},
    6: {"kind": "cells", "attacker": "digital", "p_d": 0.18,
        "epsilon": 1e-9, "strategy": "equiprobable"},
    7: {"kind": "cells", "attacker": "analog", "p_d": 0.18, "p_a": 0.36,
        "epsilon": 1e-6, "strategy": "equiprobable"},
    8: {"kind": "cells", "attacker": "analog", "p_d": 0.18, "p_a": 0.36,
        "epsilon": 1e-6, "strategy": "equidistant"},
}

# Published values, row-indexed by number of levels.  None renders as
# ">20000" (the source's empty-cell convention).
PUBLISHED = {
    1: {
        2: (0.1, 0.1, 0.1, 0.1, 0.1, 0.1),
        4: (0.117, 0.117, 0.2, 0.2, 0.2, 0.2),
        8: (0.196, 0.196, 0.298, 0.282, 0.299, 0.294),
        16: (0.291, 0.291, 0.356, 0.0, 0.363, 0.327),
        32: (0.376, 0.269, 0.382, 0.0, 0.382, 0.311),
        64: (0.389, 0.0, 0.398, 0.0, 0.398, 0.0),
        128: (0.404, 0.0, 0.406, 0.0, 0.406, 0.0),
        256: (0.410, 0.0, 0.409, 0.0, 0.410, 0.0),
    },
    2: {
        2: (0.18, 0.18, 0.18, 0.18, 0.18, 0.18),
        4: (0.211, 0.211, 0.36, 0.36, 0.36, 0.36),
        8: (0.353, 0.353, 0.536, 0.524, 0.537, 0.533),
        16: (0.523, 0.523, 0.640, 0.356, 0.654, 0.600),
        32: (0.677, 0.591, 0.687, 0.0, 0.688, 0.613),
        64: (0.700, 0.061, 0.716, 0.0, 0.716, 0.061),
        128: (0.727, 0.0, 0.731, 0.0, 0.731, 0.0),
        256: (0.738, 0.0, 0.737, 0.0, 0.738, 0.0),
    },
    3: {
        2: (3645, 1902, 5499, 2655, 7354, 3391),
        4: (2664, 1117, 4025, 1516, 5386, 1902),
        8: (3178, 850, 4635, 1128, 6072, 1398),
        16: (5502, 779, 7768, 1019, 9977, 1250),
        32: (5390, 744, 7609, 970, 9773, 1187),
        64: (5509, 726, 7768, 943, 9968, 1152),
    },
    4: {
        2: (1938, 1038, 2923, 1454, 3909, 1860),
        4: (1399, 606, 2113, 825, 2828, 1038),
        8: (1508, 459, 2216, 612, 2916, 760),
        16: (2194, 420, 3128, 552, 4042, 680),
        32: (2150, 401, 3064, 525, 3959, 644),
        64: (2179, 390, 3102, 510, 4004, 625),
    },
    5: {
        2: (3645, 2106, 5499, 2887, 7354, 3647),
        4: (2665, 1286, 4026, 1703, 5388, 2106),
        8: (3345, 1006, 4834, 1300, 6299, 1582),
        16: (6050, 940, 8414, 1194, 10705, 1437),
        32: (5927, 903, 8243, 1142, 10488, 1370),
        64: (6068, 884, 8427, 1114, 10712, 1335),
    },
    6: {
        2: (1938, 1145, 2923, 1575, 3909, 1994),
        4: (1400, 693, 2114, 923, 2828, 1145),
        8: (1571, 539, 2291, 701, 3002, 856),
        16: (2382, 504, 3350, 643, 4293, 777),
        32: (2334, 483, 3282, 614, 4205, 740),
        64: (2370, 472, 3327, 599, 4259, 720),
    },
    7: {
        2: (1938, 902, 2923, 1295, 3909, 1683),
        4: (1399, 417, 2113, 607, 2828, 795),
        8: (1511, 239, 2219, 358, 2918, 478),
        16: (5983, 201, 8470, 301, 10897, 401),
        32: (None, 187, None, 280, None, 373),
        64: (None, 179, None, 269, None, 358),
    },
    8: {
        2: (1938, 902, 2923, 1295, 3909, 1683),
        4: (2305, 740, 3482, 1070, 4659, 1396),
        8: (1679, 363, 2537, 545, 3397, 726),
        16: (1355, 245, 2044, 367, 2734, 490),
        32: (2184, 190, 3141, 284, 4081, 379),
        64: (None, 183, None, 275, None, 366),
    },
}

@dataclasses.dataclass(frozen=True)
class TableSpec:
    table_id: int
    overrides: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if self.table_id not in CAPTIONS:
            raise DomainError(f"unknown table id {self.table_id}")
        caption = CAPTIONS[self.table_id]
        allowed = {"p_d", "p_a", "epsilon", "levels"}
        for k in self.overrides:
            if k not in allowed:
                raise DomainError(f"unknown override {k!r}")
        if "epsilon" in self.overrides and caption["kind"] == "rates":
            raise DomainError("epsilon does not apply to a rate table")
        if "p_a" in self.overrides and caption.get("attacker") == "digital":
            raise DomainError("p_a does not apply to a digital cell table")

    @property
    def params(self) -> dict:
        p = dict(CAPTIONS[self.table_id])
        p.update({k: v for k, v in self.overrides.items() if k != "levels"})
        return p

    @property
    def levels(self) -> tuple:
        if "levels" in self.overrides:
            return tuple(self.overrides["levels"])
        return RATE_LEVELS if CAPTIONS[self.table_id]["kind"] == "rates" \
            else CELL_LEVELS

    @property
    def columns(self) -> tuple:
        return RATE_COLUMNS if CAPTIONS[self.table_id]["kind"] == "rates" \
            else CELL_COLUMNS


def equidistant_reference(model: PufModel, levels: int) -> InputQuantizer:
    """Equidistant quantizer over the fixed +-10000 measurement range."""
    return make_quantizer(model, levels, "equidistant")


def make_quantizer(model: PufModel, levels: int, strategy: str, *,
                   step: float | None = None) -> InputQuantizer:
    """The `strategy` quantizer with `levels` levels: "equiprobable", or
    "equidistant" with `step`, by default the fixed-range FIXED_RANGE /
    levels."""
    if step is not None and strategy != "equidistant":
        raise DomainError(f"a step applies to the equidistant strategy only, "
                          f"not to {strategy!r}")
    if strategy == "equiprobable":
        return make_equiprobable(model, levels)
    if strategy != "equidistant":
        raise DomainError(f"unknown quantizer strategy {strategy!r}")
    # at levels 0 no step is divided out: make_equidistant rejects it
    return make_equidistant(model, levels, FIXED_RANGE / levels
                            if step is None and levels else step)


def summarize_strategy(model: PufModel, levels: int, strategy: str,
                       attacker: AttackerSpec | None = None, *,
                       step: float | None = None) -> bounds.ChannelSummary:
    """Channel summary of the `strategy` quantizer: make_quantizer's, or
    for "optimized" the summary the optimizer returns with its search
    against `attacker` at its default per-alphabet effort."""
    # make_quantizer owns the step rule: it rejects a step for "optimized"
    if strategy != "optimized" or step is not None:
        return bounds.summarize_channel(
            make_quantizer(model, levels, strategy, step=step), model)
    if attacker is None:
        raise DomainError("the optimized strategy needs an attacker")
    return optimize.optimize_quantizer(model, levels, attacker).summary


def _rate_row(model, levels, p_d, p_a):
    atts = (AttackerSpec("digital", p_d=p_d),
            AttackerSpec("analog", p_d=p_d, p_a=p_a))
    row = []
    for strategy in ("equidistant", "equiprobable"):
        s = summarize_strategy(model, levels, strategy)
        row += [bounds.asymptotic_rate(s, att)[0] for att in atts]
    # each objective's cell is its public rate (the lower bound) on the
    # optimizer's summary: what `rate --strategy optimized` answers
    for att in atts:
        s = summarize_strategy(model, levels, "optimized", att)
        row.append(bounds.asymptotic_rate(s, att)[0])
    return tuple(row)


def _cells_row(model, levels, params):
    att = AttackerSpec(params["attacker"], p_d=params["p_d"],
                       p_a=params.get("p_a"))
    summary = summarize_strategy(model, levels, params["strategy"], att)
    out = []
    for lam in SECURITY_LEVELS:
        query = bounds.BoundQuery(attacker=att, quantizer=summary.quantizer,
                                  epsilon=params["epsilon"],
                                  security_bits=lam, n=None)
        for direction in ("achievability", "converse"):
            out.append(bounds.min_cells(query, direction, summary=summary))
    return tuple(out)


def generate_table(spec: TableSpec, model: PufModel | None = None, *,
                   compare: bool = False) -> dict:
    """Compute a full table; returns a plain dict ready for rendering.

    With compare=True each row carries the published values and per-cell
    deviations (relative for nonzero reference cells, absolute otherwise);
    the published values hold for the published parameters only, so a
    comparison allows no override but `levels`.
    """
    if compare and set(spec.overrides) - {"levels"}:
        raise DomainError("a comparison with the published values allows "
                          "no override but levels")
    model = model or PufModel()
    params = spec.params
    rows = []
    for lv in spec.levels:
        if params["kind"] == "rates":
            values = _rate_row(model, lv, params["p_d"], params["p_a"])
        else:
            values = _cells_row(model, lv, params)
        row = {"levels": lv, "values": values}
        if compare:
            ref = PUBLISHED[spec.table_id].get(lv)
            row["published"] = ref
            row["deviation"] = _deviations(values, ref)
        rows.append(row)
    return {"table_id": spec.table_id, "params": params,
            "columns": list(spec.columns), "rows": rows,
            "cap": bounds.LOG2_CAP_DEFAULT}


def _deviations(values, ref):
    if ref is None:
        return None
    out = []
    for v, r in zip(values, ref):
        if r is None or v is None:
            out.append(None if (r is None) == (v is None) else float("inf"))
        elif r == 0:
            out.append(float(v))
        else:
            out.append((v - r) / r)
    return tuple(out)


def format_cell(value, fmt: str, cap: int) -> str:
    """One table cell or record value: None as ">cap", the cap the search
    actually used; an int as is; a float with 6 significant digits, or in
    markdown with 3 decimals (3 significant digits for values that would
    round to 0.000)."""
    if value is None:
        return f">{cap}"
    if isinstance(value, int):
        return str(value)
    if fmt != "markdown":
        return f"{value:.6g}"
    if value != 0 and abs(value) < 5e-4:
        return f"{value:.3g}"
    return f"{value:.3f}"


def render(table: dict, fmt: str) -> str:
    """A generated table as JSON, CSV or a markdown grid; with the compare
    columns when its rows carry published values."""
    if fmt == "json":
        return json.dumps(table, indent=2, sort_keys=True)
    md = fmt == "markdown"
    cols = table["columns"]
    header = ["levels", *cols]
    has_cmp = any("published" in r for r in table["rows"])
    if has_cmp:
        ref_tag, dev_tag = (" (ref)", " (dev)") if md else ("_ref", "_dev")
        header += [c + ref_tag for c in cols] + [c + dev_tag for c in cols]
    rows = []
    for r in table["rows"]:
        cells = [str(r["levels"])]
        cells += [format_cell(v, fmt, table["cap"]) for v in r["values"]]
        if has_cmp:
            ref = r.get("published") or (None,) * len(cols)
            cells += [format_cell(v, fmt, table["cap"]) for v in ref]
            dev = r.get("deviation") or (None,) * len(cols)
            if md:
                cells += ["-" if d is None else f"{d:+.3%}" for d in dev]
            else:
                cells += ["" if d is None else f"{d:.6g}" for d in dev]
        rows.append(cells)
    if md:
        lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        lines += ["| " + " | ".join(cells) + " |" for cells in rows]
    else:
        lines = [",".join(h.replace(" ", "_") for h in header)]
        lines += [",".join(cells) for cells in rows]
    return "\n".join(lines) + "\n"
