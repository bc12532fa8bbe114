"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pufsec  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, kind):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert ({k: v["unit"] for k, v in res["metrics"].items()}
            == {m["name"]: m["unit"] for m in SPEC[kind]})


def _failed_ops(wl):
    counts = run.Counts()
    run.record(wl, 0, run.execute(wl.ops(0))[0], counts)
    return counts.failed, counts.attempted


def test_wrong_published_cell_fails_its_table(monkeypatch):
    wrong = copy.deepcopy(reference.PUBLISHED)
    wrong[8][4] = (2305, 740, 3482, 1070, 4659, 1500)    # conv 256 was 1396
    monkeypatch.setattr(workloads, "PUBLISHED", wrong)
    wl = workloads.Tables(3, tiny=True)
    wl.setup()
    assert _failed_ops(wl) == (1, 2)


def test_wrong_reference_channel_fails_simulation():
    wl = workloads.MonteCarlo(3, tiny=True)
    wl.setup()
    wl.reference = np.roll(wl.reference, 1, axis=1)
    assert _failed_ops(wl) == (1, 4)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["root", 0.0, 10.0, None, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["a.child", 2.0, 3.0, 1, 0, None],
        ["b", 3.0, 6.0, 0, 0, None],        # overlaps a: children cover [1, 6]
        ["c", 8.0, 12.0, 0, 0, None],       # clipped to the root's end
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])
    nested = [["root", 0.0, 10.0, None, 0, None],
              ["a", 1.0, 4.0, 0, 0, None],
              ["b", 2.0, 3.0, 1, 0, None],
              ["c", 5.0, 9.0, 0, 0, None]]
    assert sum(tracing.self_times(nested)) == pytest.approx(10.0)


def test_tracer_wraps_every_binding_and_restores_it():
    from pufsec import bounds, channel, optimize
    original = channel.per_w_channels
    q = pufsec.make_equiprobable(pufsec.PufModel(), 4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for ns in (channel, bounds, optimize):
            assert ns.per_w_channels is not original
            assert ns.per_w_channels.__wrapped__ is original
        bounds.summarize_channel(q, nodes=16)
    finally:
        tracer.uninstall()
    assert all(ns.per_w_channels is original
               for ns in (channel, bounds, optimize))
    names = [s[0] for s in tracer.spans]
    assert names[0] == "bounds.summarize_channel"
    assert names.count("channel.per_w_channels") == 3
    m = tracing.layer_metrics(tracer.spans, 0, 0)
    assert m["channel.per_w_channels.nodes"] == (16 + 32 + 16, "count")
    assert m["bounds.summarize_channel.distinct"] == (1, "count")
