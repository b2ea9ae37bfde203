"""The scripts under ``scripts/`` run to completion."""

from helpers import ROOT, run_python


def test_reproduce_worked_examples():
    proc = run_python(str(ROOT / "scripts" / "reproduce_worked_examples.py"))
    assert proc.returncode == 0, proc.stderr
    assert "615925280183/625000000000" in proc.stdout


def test_sweep_log_derivatives():
    proc = run_python(str(ROOT / "scripts" / "sweep_log_derivatives.py"))
    assert proc.returncode == 0, proc.stderr
    assert "# max dLnZeta" in proc.stderr
