"""Randomized oracle-equivalence checking.

Draws instances from every built-in family with rational parameters, runs
both the transfer-matrix pass and the brute-force oracle in exact mode, and
demands identical rationals for availability and failure frequency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Component, single_pass
from .kofn import KofnSpec, build_kofn_g, build_lincon_f
from .ladder import (
    LadderSpec,
    TERMINAL_S,
    TERMINAL_T,
    build_ladder,
    distinct_ladder_cells,
    ladder_structure,
)
from .oracle import (
    MAX_COMPONENTS,
    kofn_g_structure,
    lincon_f_structure,
    oracle_solve,
)


@dataclass
class Mismatch:
    description: str
    matrix_value: Fraction
    oracle_value: Fraction
    quantity: str


def _random_component(rng: random.Random, cid: str) -> Component:
    p = Fraction(rng.randint(1, 19), 20)
    lam = Fraction(rng.randint(0, 12), rng.randint(1, 9))
    return Component(cid, p, lam)


def _random_kofn(rng: random.Random, max_components: int, build, structure, name: str):
    """A random k-of-n system from ``build``, with its ``structure``
    function; ``name`` heads the description."""
    n = rng.randint(1, max_components)
    k = rng.randint(1, n)
    comps = tuple(_random_component(rng, f"c{i}") for i in range(1, n + 1))
    system = build(KofnSpec(k, comps))
    return system, structure([c.id for c in comps], k), f"{name} k={k} n={n}"


def _random_ladder(rng: random.Random, max_components: int):
    # n=1 with fallible nodes is 8 components; larger n uses perfect nodes
    if max_components >= 8 and rng.random() < 0.5:
        n, perfect_nodes = 1, False
    else:
        n = rng.randint(1, (max_components - 1) // 3)
        perfect_nodes = True

    def node(cid):
        if perfect_nodes:
            return Component(cid, 1, 0)
        return _random_component(rng, cid)

    cells = distinct_ladder_cells(n, lambda cid: _random_component(rng, cid), node)
    terminal = TERMINAL_S if rng.random() < 0.5 else TERMINAL_T
    spec = LadderSpec(cells, terminal)
    system = build_ladder(spec)
    sf = ladder_structure(spec)
    return system, sf, f"ladder n={n} terminal={terminal} perfect_nodes={perfect_nodes}"


def check_sizes(trials: int, max_components: int) -> None:
    """Raise ValueError unless trials >= 1 and 1 <= max_components <= the cap."""
    if trials < 1:
        raise ValueError(f"trials={trials} must be at least 1")
    if not 1 <= max_components <= MAX_COMPONENTS:
        raise ValueError(f"max_components={max_components} outside [1, {MAX_COMPONENTS}]")


def run_equivalence_trials(
    trials: int = 200,
    max_components: int = 12,
    seed: int = 0,
) -> Optional[Mismatch]:
    """Compare transfer-matrix and oracle results on randomized instances:
    the first mismatch, or None when every trial agrees."""
    check_sizes(trials, max_components)
    rng = random.Random(seed)
    makers = [
        lambda: _random_kofn(rng, max_components, build_kofn_g, kofn_g_structure, "G"),
        lambda: _random_kofn(rng, max_components, build_lincon_f, lincon_f_structure, "LinConF"),
    ]
    if max_components >= 4:  # the smallest ladder has 4 fallible edges
        makers.append(lambda: _random_ladder(rng, max_components))
    for t in range(trials):
        system, sf, desc = makers[t % len(makers)]()
        probs = {c.id: c.p for c in system.components}
        rates = {c.id: c.lam for c in system.components}
        report = single_pass(system)
        a_oracle, nu_oracle = oracle_solve(sf, probs, rates)
        if report.availability != a_oracle:
            return Mismatch(desc, report.availability, a_oracle, "availability")
        if report.frequency != nu_oracle:
            return Mismatch(desc, report.frequency, nu_oracle, "frequency")
    return None
