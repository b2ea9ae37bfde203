"""The scripts under ``scripts/`` run to completion."""

import json

from helpers import ROOT, run_python


def test_reproduce_worked_examples():
    proc = run_python(str(ROOT / "scripts" / "reproduce_worked_examples.py"))
    assert proc.returncode == 0, proc.stderr
    assert "615925280183/625000000000" in proc.stdout


def test_sweep_log_derivatives():
    proc = run_python(str(ROOT / "scripts" / "sweep_log_derivatives.py"))
    assert proc.returncode == 0, proc.stderr
    assert "# max dLnZeta" in proc.stderr


def test_output_digest():
    # tests/output_digest.txt holds the 43 lines as recorded on Python
    # 3.11.7, the same under PYTHONHASHSEED 0, 1 and 12345: a change that
    # moves any output by one byte fails here
    proc = run_python(str(ROOT / "scripts" / "output_digest.py"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "output_digest.txt").read_text()


def test_layer_times():
    proc = run_python(str(ROOT / "scripts" / "layer_times.py"), "--tiny")
    assert proc.returncode == 0, proc.stderr
    times = json.loads(proc.stdout)
    assert list(times) == ["ladder-6", "ladder-24", "kofn-5-of-20-G", "identical-ladder-1000",
                           "approx_squaring", "approx_stream_step", "first_compile",
                           "distinct_coefficient_pairs"]
    layers = ["parse", "build", "compile", "fold", "finalize", "as_dict"]
    assert all(list(times[name]) == layers for name in list(times)[:-4])
    assert all(t > 0 for name in list(times)[:-4] for t in times[name].values())
    assert times["approx_squaring"] > 0 and times["approx_stream_step"] > 0
    first = times["first_compile"]
    assert list(first) == ["ladder-cell", "kofn-G"]
    assert all(list(modes) == ["exact", "approx"] and all(t > 0 for t in modes.values())
               for modes in first.values())
    # 20 pairs of one structure with their own coefficients: a kernel per
    # shape, far fewer than one per pair
    distinct = times["distinct_coefficient_pairs"]
    assert list(distinct) == ["exact", "approx"]
    assert all(list(m) == ["kernels", "compile"] and 1 <= m["kernels"] < 20 and m["compile"] > 0
               for m in distinct.values())
