"""Shared test fixtures-in-spirit: builders for small reference systems."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from relfreq.core import Component, apply_rate_operator
from relfreq.kofn import KofnSpec
from relfreq.ladder import LadderCell, LadderSpec, TERMINAL_T, entry_cell
from relfreq.oracle import oracle_availability


def example_7_2_components():
    """5-out-of-8:G worked example: p = 0.90, 0.89, ..., 0.83 with a common
    repair rate; failure rates are the steady-state-consistent multipliers."""
    return tuple(
        Component.steady_state(f"c{i+1}", Fraction(90 - i, 100)) for i in range(8)
    )


def lincon_4_11_components():
    """Consecutive worked example: p from 0.70 to 0.90 in steps of 0.02."""
    return tuple(
        Component.steady_state(f"c{i+1}", Fraction(70 + 2 * i, 100)) for i in range(11)
    )


def distinct_ladder_spec(p, rho, lam, xi, n, terminal=TERMINAL_T):
    """Ladder with one distinct component id per slot (oracle-compatible)."""
    cells = [
        entry_cell(
            Component("b0", p, lam), Component("S0", rho, xi), Component("T0", rho, xi)
        )
    ]
    for i in range(1, n + 1):
        cells.append(
            LadderCell(
                a=Component(f"a{i}", p, lam),
                b=Component(f"b{i}", p, lam),
                c=Component(f"c{i}", p, lam),
                S=Component(f"S{i}", rho, xi),
                T=Component(f"T{i}", rho, xi),
                index=i,
            )
        )
    return LadderSpec(tuple(cells), terminal)


def dense_fraction_fold(system, assignment):
    """(A, nu) by a plain dense Fraction fold, one matrix product per step."""
    avail = {cid: p for cid, (p, _) in assignment.items()}
    rates = {cid: lam for cid, (_, lam) in assignment.items()}
    dim = system.dim
    a, v = list(system.v_right), [Fraction(0)] * dim
    for pair in system.pairs:
        m = [[Fraction(0)] * dim for _ in range(dim)]
        mp = [[Fraction(0)] * dim for _ in range(dim)]
        for r, c, e in (e for row in pair.m for e in row):
            m[r][c] = e.evaluate(avail)
            mp[r][c] = apply_rate_operator(e, rates).evaluate(avail)
        a, v = (
            [sum(m[r][j] * a[j] for j in range(dim)) for r in range(dim)],
            [sum(m[r][j] * v[j] + mp[r][j] * a[j] for j in range(dim)) for r in range(dim)],
        )
    x = sum(l * ai for l, ai in zip(system.v_left, a))
    y = sum(l * vi for l, vi in zip(system.v_left, v))
    return system.offset + system.sign * x, system.sign * y


def oracle_pivotal(sf, probs, pivot):
    """(A with p_pivot := 1, A with p_pivot := 0), both from the oracle."""
    return tuple(oracle_availability(sf, {**probs, pivot: p}) for p in (1, 0))


def is_monotone(sf) -> bool:
    """Check coherence by testing every single-bit upgrade of every up state."""
    n, fn = len(sf.ids), sf.fn
    return all(
        fn(x | 1 << j) for x in range(1 << n) if fn(x) for j in range(n) if not x >> j & 1
    )


ROOT = Path(__file__).resolve().parent.parent


def run_python(*args, **env):
    """Run a fresh interpreter on ``args`` with the package's sources importable
    and ``env`` added to the environment."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, **env, PYTHONPATH=path),
        timeout=120,
    )
