"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed, makes one warm-up
call in `setup`, hands the runner the timed ops of one pass (`ops`), and
checks every op's output afterwards, outside the timed region (`check`).
Ops reach pufsec through module attributes at call time (``bounds.min_cells``,
never a name imported from it), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
from typing import Callable

import numpy as np

from pufsec import bounds, channel, cli, sim, tables
from pufsec.quantizer import make_equidistant, make_equiprobable
from pufsec.stats import PufModel

from reference import PUBLISHED

CELL_CAP = 20000            # pufsec's default cap for `cells` and `table`
NODES = 128                 # pufsec's default quadrature nodes
Z_MAX = 6.0                 # standard errors allowed between MC and quadrature
KS_ALPHA = 1e-6             # family-wise level of the KS leakage tests
RATE_TOL = 5e-4             # published rates are printed to 3 decimals
REL_TOL = 1e-9              # float slack when re-evaluating n * rate(n)


@dataclasses.dataclass
class Op:
    call: Callable[[], object]
    items: int              # work items for samples_per_s


def _no_span(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Workload:
    name = ""
    span = staticmethod(_no_span)     # Tracer.call in the traced pass

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def setup(self):
        raise NotImplementedError

    def ops(self, p: int) -> list[Op]:
        raise NotImplementedError

    def check(self, p: int, outputs: list) -> list[str | None]:
        """One error message (or None) per op; outputs of ops that raised
        are the exception and are counted as failures by the runner."""
        raise NotImplementedError

    def cli(self, argv: list[str]) -> str:
        """Run the click CLI in process and return what it printed."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self.span("cli.main", cli.main.main, args=argv,
                      prog_name="pufsec", standalone_mode=False)
        return buf.getvalue()


def _parse_table(text: str, cast) -> dict[int, tuple]:
    """Computed values of a `--format csv table` output, keyed by levels."""
    lines = text.strip().splitlines()
    ncols = (len(lines[0].split(",")) - 1) // 3
    out = {}
    for line in lines[1:]:
        cells = line.split(",")
        out[int(cells[0])] = tuple(None if c.startswith(">") else cast(c)
                                   for c in cells[1:1 + ncols])
    return out


def _inf(v):
    return math.inf if v is None else v


def check_cell_table(tid: int, rows: dict, levels) -> list:
    """Errors of one cell-count table: published cells within
    max(1%, 3 cells) (table 8 achievability may also be smaller), None
    exactly where the paper has none, and in every row converse <=
    achievability and counts nondecreasing in lambda."""
    errs = []
    if sorted(rows) != sorted(levels):
        errs.append(f"rows {sorted(rows)} != {sorted(levels)}")
    for lv, vals in rows.items():
        ref = PUBLISHED[tid].get(lv)
        for col, got in enumerate(vals):
            if ref is None:
                break
            r = ref[col]
            if r is None or got is None:
                ok = r is None and got is None
            else:
                ok = (abs(got - r) <= max(0.01 * r, 3)
                      or (tid == 8 and col % 2 == 0 and got < r))
            if not ok:
                errs.append(f"table {tid} levels {lv} col {col}: {got} vs {r}")
        for i in (0, 2, 4):
            if _inf(vals[i + 1]) > _inf(vals[i]):
                errs.append(f"table {tid} levels {lv}: converse > achievability")
        for i in (0, 1):
            if not _inf(vals[i]) <= _inf(vals[i + 2]) <= _inf(vals[i + 4]):
                errs.append(f"table {tid} levels {lv}: decreasing in lambda")
    return errs


class Tables(Workload):
    """`pufsec --format csv table --id K --compare` for K = 3..8, levels to
    256; the seed only permutes the order of the six tables."""

    name = "tables"

    def setup(self):
        ids = (3, 8) if self.tiny else (3, 4, 5, 6, 7, 8)
        self.levels = (2, 4) if self.tiny else tuple(2 ** k for k in range(1, 9))
        rng = np.random.default_rng([self.seed, 1])
        self.order = [int(t) for t in rng.permutation(ids)]
        self._table(3, (2,))

    def _table(self, tid, levels):
        return self.cli(["--format", "csv", "table", "--id", str(tid),
                         "--compare", "--override",
                         "levels=" + ";".join(map(str, levels))])

    def ops(self, p):
        return [Op(lambda t=t: self._table(t, self.levels),
                   items=6 * len(self.levels)) for t in self.order]

    def check(self, p, outputs):
        out = []
        for tid, text in zip(self.order, outputs):
            if isinstance(text, BaseException):
                out.append(None)
                continue
            errs = check_cell_table(tid, _parse_table(text, int), self.levels)
            out.append("; ".join(errs) or None)
        return out


class Rates(Workload):
    """`pufsec --format csv table --id 2 --compare` at levels 4, 8, 16: the
    optimizer-dominated rate table.  The seed only orders the levels; the
    optimizer keeps pufsec's default seed 0, because its random starts
    change the work done by up to a third from one seed to another."""

    name = "rates"

    def setup(self):
        levels = (4,) if self.tiny else (4, 8, 16)
        rng = np.random.default_rng([self.seed, 3])
        self.levels = [int(n) for n in rng.permutation(levels)]
        self._table((2,))

    def _table(self, levels):
        return self.cli(["--seed", "0", "--format", "csv", "table", "--id",
                         "2", "--compare", "--override",
                         "levels=" + ";".join(map(str, levels))])

    def ops(self, p):
        return [Op(lambda: self._table(self.levels),
                   items=6 * len(self.levels))]

    def check(self, p, outputs):
        (text,) = outputs
        if isinstance(text, BaseException):
            return [None]
        rows = _parse_table(text, float)
        errs = []
        if sorted(rows) != sorted(self.levels):
            errs.append(f"rows {sorted(rows)}")
        for lv, vals in rows.items():
            ref = PUBLISHED[2][lv]
            for col in range(4):
                if not abs(vals[col] - ref[col]) <= RATE_TOL:
                    errs.append(f"levels {lv} col {col}: {vals[col]} vs {ref[col]}")
            for opt, base in ((4, 2), (5, 3)):
                if not vals[opt] >= vals[base]:
                    errs.append(f"levels {lv}: optimized col {opt} < col {base}")
        return ["; ".join(errs) or None]


@dataclasses.dataclass
class Query:
    quantizer: object
    attacker: object
    epsilon: float
    security_bits: int


class Queries(Workload):
    """Independent cell-count queries, each with its own model.  A pass
    holds every level count of 2..64 twice in seeded order, with sigma_N
    stratified log-uniformly over [60, 400], so each pass does the same
    mix of alphabet sizes whatever the seed."""

    name = "queries"
    SIGMA_N = (60.0, 400.0)

    def setup(self):
        self.levels = np.arange(2, 7) if self.tiny else np.arange(2, 65)
        self.blocks = 1 if self.tiny else 2
        self._query(self._draw(-1)[0])

    def _draw(self, p) -> list[Query]:
        rng = np.random.default_rng([self.seed, 2, p + 1])
        lv = np.concatenate([rng.permutation(self.levels)
                             for _ in range(self.blocks)])
        k = len(lv)
        lo, hi = np.log(self.SIGMA_N)
        sigma_n = np.exp(lo + (rng.permutation(k) + rng.random(k)) / k * (hi - lo))
        out = []
        for n, s in zip(lv, sigma_n):
            model = PufModel(2241.0, float(s))
            if rng.random() < 0.5:
                q = make_equiprobable(model, int(n))
            else:
                q = make_equidistant(model, int(n), tables.FIXED_RANGE / n)
            p_d = float(rng.uniform(0.05, 0.3))
            if rng.random() < 0.5:
                att = channel.AttackerSpec("digital", p_d=p_d)
            else:
                att = channel.AttackerSpec(
                    "analog", p_d=p_d, p_a=float(rng.uniform(p_d, 2 * p_d)))
            out.append(Query(q, att, float(rng.choice([1e-6, 1e-9, 1e-12])),
                             int(rng.choice([64, 128, 192, 256]))))
        return out

    def _query(self, qr: Query):
        # the calls `pufsec cells` makes
        query = bounds.BoundQuery(attacker=qr.attacker, quantizer=qr.quantizer,
                                  epsilon=qr.epsilon,
                                  security_bits=qr.security_bits, n=None)
        summary = bounds.summarize_channel(qr.quantizer, qr.quantizer.model,
                                           nodes=NODES)
        ach = bounds.min_cells(query, "achievability", CELL_CAP, summary=summary)
        conv = bounds.min_cells(query, "converse", CELL_CAP, summary=summary)
        return summary, ach, conv

    def ops(self, p):
        self.batch = self._draw(p)
        return [Op(lambda qr=qr: self._query(qr), items=1) for qr in self.batch]

    def check(self, p, outputs):
        return [None if isinstance(out, BaseException) else
                check_query(qr, *out) for qr, out in zip(self.batch, outputs)]


def check_query(qr: Query, summary, ach, conv) -> str | None:
    """min_cells answers against the public finite_rate_* functions on the
    query's own summary: n * rate(n) >= lambda > (n-1) * rate(n-1), or no
    n <= cap reaches lambda when the answer is None."""
    att = qr.attacker
    kw = {"p_d": att.p_d, "epsilon": qr.epsilon,
          "security_bits": qr.security_bits}
    if att.kind == "analog":
        kw["p_a"] = att.p_a
    fns = {"digital": (bounds.finite_rate_digital_ach,
                       bounds.finite_rate_digital_conv),
           "analog": (bounds.finite_rate_analog_ach,
                      bounds.finite_rate_analog_conv)}[att.kind]
    lam = qr.security_bits
    for direction, fn, n in zip(("achievability", "converse"), fns, (ach, conv)):

        def bits(m):
            return m * fn(summary, n=m, **kw)

        if n is None:
            if bits(CELL_CAP) >= lam * (1 + REL_TOL):
                return f"{direction}: None but cap reaches lambda"
        elif not 1 <= n <= CELL_CAP or bits(n) < lam * (1 - REL_TOL):
            return f"{direction}: n={n} does not reach lambda={lam}"
        elif n > 1 and bits(n - 1) >= lam * (1 + REL_TOL):
            return f"{direction}: n={n} is not minimal"
    return None


class MonteCarlo(Workload):
    """run_simulation, leakage_test with both helper schemes and
    attacker_observations on the equidistant N=16 reference quantizer
    against the analog attacker; one fresh Philox seed per pass."""

    name = "montecarlo"

    def setup(self):
        self.model = PufModel()
        self.q = tables.equidistant_reference(self.model, 16)
        self.attacker = channel.AttackerSpec("analog", p_d=0.18, p_a=0.36)
        self.samples = 200_000 if self.tiny else 1_000_000
        self.reference = channel.averaged_channel(self.q, self.model,
                                                  nodes=NODES).p
        sim.run_simulation(self._config(-1, 10_000))

    def _config(self, p, samples):
        seed = int(np.random.SeedSequence([self.seed, 4, p + 1]).generate_state(1)[0])
        return sim.SimConfig(self.model, self.q, samples=samples, seed=seed,
                             attacker=self.attacker)

    def ops(self, p):
        cfg = self._config(p, self.samples)
        n = self.samples
        return [Op(lambda: sim.run_simulation(cfg), n),
                Op(lambda: sim.leakage_test(cfg), n),
                Op(lambda: sim.leakage_test(cfg, helper="center-distance"), n),
                Op(lambda: sim.attacker_observations(cfg), n)]

    def check(self, p, outputs):
        report, zero, center, att = [
            None if isinstance(o, BaseException) else o for o in outputs]
        checks = (self._check_matrix,
                  lambda r: _ks_error(r, uniform=True),
                  lambda r: _ks_error(r, uniform=False),
                  lambda r: self._check_attacker(r["counts"], report))
        return [None if out is None else f(out)
                for f, out in zip(checks, (report, zero, center, att))]

    def _check_matrix(self, report):
        counts = report.counts
        if counts.sum() != self.samples:
            return f"report has {counts.sum()} samples"
        n = counts.sum(axis=1)[:, None]
        ref = self.reference
        se = np.sqrt(np.maximum(ref * (1 - ref), 1 / np.maximum(n, 1))
                     / np.maximum(n, 1))
        z = np.where(n > 0, np.abs(counts / np.maximum(n, 1) - ref) / se, 0.0)
        if z.max() > Z_MAX:
            return f"P(S~|S) is {z.max():.1f} standard errors from quadrature"
        return None

    def _check_attacker(self, counts, report):
        n = self.q.levels
        s = self.samples
        errs = []
        if counts.sum() != s:
            errs.append(f"{counts.sum()} observations")
        for frac, p in ((counts[:, n, :].sum() / s, self.attacker.p_d),
                        (counts[:, :, n].sum() / s, self.attacker.p_a)):
            if abs(frac - p) > Z_MAX * math.sqrt(p * (1 - p) / s):
                errs.append(f"erasure fraction {frac} vs {p}")
        if counts[:, n, :n].sum():
            errs.append("digital erasure without analog erasure")
        analog = counts[:, :, :n].sum(axis=1)
        if analog.sum() != np.trace(analog):
            errs.append("analog reading differs from the secret")
        if report is not None and not np.array_equal(
                counts.sum(axis=(1, 2)), report.counts.sum(axis=1)):
            errs.append("secrets differ from run_simulation on one stream")
        return "; ".join(errs) or None


def _ks_error(per_level: dict, *, uniform: bool) -> str | None:
    pv = [v["p_value"] for v in per_level.values() if not v["under_sampled"]]
    if not pv:
        return "no level has enough samples"
    level = KS_ALPHA / len(pv)
    if uniform and min(pv) < level:
        return f"zero-leakage helper rejected, p={min(pv):.3g}"
    if not uniform and min(pv) >= level:
        return f"center-distance helper not rejected, p={min(pv):.3g}"
    return None


WORKLOADS = {w.name: w for w in (Tables, Queries, Rates, MonteCarlo)}
