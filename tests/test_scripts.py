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


def test_output_digest():
    proc = run_python(str(ROOT / "scripts" / "output_digest.py"))
    assert proc.returncode == 0, proc.stderr
    lines = [line.split("  ", 1) for line in proc.stdout.splitlines()]
    names = [name for _, name in lines]
    assert len(names) == len(set(names)) == 25
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for digest, _ in lines)
    assert "solve ladder-600 approx" in names and "verify seed 3 corrupt" in names
    assert "solve ladder-40-shared-ids exact" in names and "sweep lincon-f p" in names
    assert "solve custom-scalar-forms exact" in names
