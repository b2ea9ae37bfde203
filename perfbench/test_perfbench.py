"""Smoke test of the benchmark itself, on tiny inputs.

Every workload prints every metric BENCHMARK.json declares, with its unit,
plus the named end-to-end metrics on the lines before the JSON result; the
deterministic per-layer counters repeat exactly for a seed; and the
benchmark refuses to run where the relfreq sources are missing.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAMED = {
    "exact-kofn": ("solve_s", "s"),
    "exact-ladder": ("solve_s", "s"),
    "approx-sweep": ("sweep_rows_per_s", "1/s"),
    "approx-stream": ("stream_steps_per_s", "1/s"),
    "verify": ("verify_trials_per_s", "1/s"),
}
COMMON = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_failed_frac", "frac")]


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    return res, "\n".join(lines[:-1])


def check_metrics(metrics, declared):
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_workloads_are_the_ones_run_py_knows():
    from run import WORKLOADS as known

    assert tuple(WORKLOADS) == known


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    res, text = result(bench(workload, 0))
    assert res["correct"]
    check_metrics(res["metrics"], SPEC["end_to_end"])
    for name, unit in [NAMED[workload]] + COMMON:
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\b", text, re.M), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_printed_and_counts_repeat(workload):
    first, text = result(bench(workload, 1))
    check_metrics(first["metrics"], SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert re.search(rf"^\s+{re.escape(m['name'])}\s", text, re.M), m["name"]
    second, _ = result(bench(workload, 1))
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bits")]
    counts.append("core.evaluate.zero_frac")
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("verify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_rebinds_every_importer_and_reports_absent_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from fractions import Fraction

    import relfreq.cli
    import relfreq.core
    import relfreq.ladder
    import relfreq.verify
    import tracing

    original = relfreq.core.single_pass
    targets = [t for t in tracing.TARGETS if t[0] != "verify"]
    targets.append(("verify", "relfreq.verify", "no_longer_here"))
    monkeypatch.setattr(tracing, "TARGETS", tuple(targets))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = relfreq.core.single_pass
        assert wrapped is not original
        for module in (relfreq.cli, relfreq.verify, relfreq.ladder):
            assert module.single_pass is wrapped
        tracer.begin_op(0)
        params = relfreq.ladder.LadderIdenticalParams(Fraction(9, 10), 1, 1, 0, 3)
        relfreq.ladder.ladder_frequency(params)
        snapshot = tracer.end_op()
    finally:
        tracer.uninstall()
    for module in (relfreq.core, relfreq.cli, relfreq.verify, relfreq.ladder):
        assert module.single_pass is original
    assert snapshot["totals"]["core.pass"][0] == 1
    assert snapshot["totals"]["ladder.build"][0] == 1
    metrics = tracing.layer_metrics(tracer.present, [snapshot], 0.0)
    assert metrics["verify.self_s"]["value"] is None
    assert metrics["core.pass_s"]["value"] > 0
    assert metrics["core.steps"]["value"] == 4


def test_probe_samples_inside_an_operation_and_excludes_its_own_time():
    import time

    from probe import PERIOD_S, Probe

    probe = Probe()
    probe.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 8 * PERIOD_S:
        sum(range(1000))
    wall = time.perf_counter() - t0
    inside = probe.stop()
    # one sample at the start, then one every period
    assert len(probe.samples) >= 5
    assert 0 < inside == sum(probe.samples) < wall
    assert probe.speed_factor() > 0
