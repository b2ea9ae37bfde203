#!/usr/bin/env python3
"""relfreq benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload exact-kofn --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; relfreq is imported from ``src/``.

The loop is closed and single-threaded: one operation, then the next, at
concurrency 1.  Each phase runs in a fresh interpreter, one at a time, so
``setup_s`` (importing relfreq.cli, scipy included, plus generating the
inputs) and ``peak_rss_mb`` belong to this workload alone: set-up processes
before and after the measuring process.

Workloads (see BENCHMARK.json for why each exists):

* ``exact-kofn``    -- exact ``relfreq solve`` of k-out-of-n:G 50-of-200;
* ``exact-ladder``  -- exact ``relfreq solve`` of a 600-cell heterogeneous ladder;
* ``approx-sweep``  -- ``relfreq sweep`` of the 100000-cell ladder over 19 p values;
* ``approx-stream`` -- a ``core.stream_step`` fold over a 1000-cell approx
  ladder, then ``core.finalize``;
* ``verify``        -- eight ``relfreq verify --trials 200`` calls, one seed each.

With ``--trace 0`` the last line of output holds the end-to-end metrics:

* ``op_norm_s`` -- the median operation time, normalised to a reference
  machine speed: one ``solve`` (the ``solve_s`` of the exact workloads), one
  sweep, one stream fold or one set of ``verify`` calls.  On a 2-vCPU
  virtual machine whose host is shared with other tenants, the same
  operation ran 1.3-2.2x slower than on the quiet host, changing over
  seconds, so that the fastest of a run's operations still moved by 15-26%
  (quartile distance over median) between runs.  A probe kernel timed inside every operation
  (perfbench/probe.py) measures that slowdown, and each operation's time is
  divided by it.  The wall-clock median, tail percentile, fastest operation
  and sample count are printed on the lines above;
* ``setup_s`` -- median over fresh interpreters of importing relfreq.cli and
  generating the inputs;
* ``peak_rss_mb`` -- peak resident memory of the measuring process;
* ``ops_ok_frac`` -- operations whose output passed its check, over
  operations attempted (the complement of ``ops_failed_frac``, which is 0 on
  most workloads and so cannot carry a relative bound).

With ``--trace 1`` it holds the per-layer metrics of perfbench/tracing.py.
``--tiny`` shrinks every input, for the benchmark's own smoke test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-kofn", "exact-ladder", "approx-sweep", "approx-stream", "verify")
# Set-up processes before and after the measuring one, which is a set-up
# sample too.  Host load holds for seconds, so samples taken back to back
# move together; spreading them over the run steadies their median.
SETUP_BEFORE, SETUP_AFTER = 4, 3
TIME_LIMIT_S = 170  # the whole run, every process included


class BenchError(RuntimeError):
    pass


def time_stats(samples):
    """(median, tail percent, tail value); the tail is the highest whole
    percentile with at least ten samples beyond it, None when too few."""
    ordered = sorted(samples)
    n = len(ordered)
    median = statistics.median(ordered)
    if n < 11:
        return median, None, None
    percent = math.floor(100 * (n - 10) / n)
    return median, percent, ordered[max(0, math.ceil(percent * n / 100) - 1)]


def _child(argv, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a benchmark process")
    # a fixed hash seed gives every run the same set and dict layouts
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")] + argv,
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"benchmark process timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"benchmark process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("benchmark process printed no result")
    return json.loads(lines[-1])


def _show(name, value, unit, note=""):
    shown = "absent" if value is None else value if isinstance(value, int) else f"{value:.6g}"
    print(f"  {name:<26} {shown:>14} {unit:<6} {note}".rstrip())


def end_to_end(run, setup_samples, seconds):
    median, percent, tail = time_stats(run["op_times"])
    fastest = min(run["op_times"])
    n = len(run["op_times"])
    speeds = run["op_speeds"]
    normalised = statistics.median(t / f for t, f in zip(run["op_times"], speeds))
    tail_note = (f"p{percent} {tail:.6g} s" if percent is not None
                 else "no tail percentile (fewer than 11 samples)")
    ok_frac = (run["attempted"] - run["failed"]) / run["attempted"]
    print(f"end-to-end, untraced, {seconds:g} s measured:")
    if not run["metric"].endswith("_per_s"):
        _show(run["metric"], median, "s", f"median; {tail_note}; min {fastest:.6g} s; n={n}")
    else:
        _show(run["metric"], run["items"] / median, "1/s",
              f"{run['items']} per operation of median {median:.6g} s; "
              f"{tail_note}; min {fastest:.6g} s; n={n}")
    _show("op_norm_s", normalised, "s",
          f"median operation at reference speed; machine slowdown "
          f"{min(speeds):.3g}-{max(speeds):.3g}, median {statistics.median(speeds):.3g}")
    _show("setup_s", statistics.median(setup_samples), "s",
          f"median of {len(setup_samples)} fresh interpreters")
    _show("peak_rss_mb", run["peak_rss_mb"], "MB")
    _show("ops_failed_frac", 1 - ok_frac, "frac",
          f"failed {run['failed']} of {run['attempted']} attempted")
    return {
        "op_norm_s": {"value": normalised, "unit": "s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        "ops_ok_frac": {"value": ok_frac, "unit": "frac"},
    }


def per_layer(run):
    from tracing import layer_metrics

    overhead = statistics.median(run["traced_times"]) / statistics.median(run["op_times"]) - 1
    metrics = layer_metrics(set(run["present"]), run["traced_ops"], overhead)
    print(f"per layer, traced, per operation ({len(run['traced_ops'])} traced operations):")
    for name, m in metrics.items():
        _show(name, m["value"], m["unit"])
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "relfreq" / "__init__.py").is_file():
        print(f"error: no relfreq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--workdir", workdir]
    if args.tiny:
        common.append("--tiny")
    try:
        # the traced run reports no set-up time, so it needs no set-up samples
        before, after = (0, 0) if args.tiny or args.trace else (SETUP_BEFORE, SETUP_AFTER)
        setup = ["--phase", "setup"] + common
        setups = [_child(setup, deadline)["setup_s"] for _ in range(before)]
        run_args = ["--phase", "run", "--trace", str(args.trace)] + common
        if args.trace:
            spans = ROOT / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.json"
            run_args += ["--spans-out", str(spans)]
        run = _child(run_args, deadline)
        setups += [_child(setup, deadline)["setup_s"] for _ in range(after)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"relfreq benchmark: workload {args.workload}, seed {args.seed}, "
          f"Python {sys.version.split()[0]}")
    if args.trace:
        metrics = per_layer(run)
    else:
        metrics = end_to_end(run, setups + [run["setup_s"]], args.seconds)
    for label in run["failure_labels"]:
        print(f"  failed: {label}")
    print(json.dumps({
        "correct": run["incorrect"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
