"""Randomized oracle-equivalence checking.

Draws instances from every built-in family with rational parameters, runs
both the transfer-matrix pass and the brute-force oracle in exact mode, and
demands identical rationals for availability and failure frequency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import List

from .core import Component, Layout, MatrixPair, TransferSystem, single_pass
from .kofn import KofnSpec, build_kofn_g, build_lincon_f
from .ladder import (
    LadderCell,
    LadderSpec,
    TERMINAL_S,
    TERMINAL_T,
    build_ladder,
    entry_cell,
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
    family: str
    description: str
    matrix_value: Fraction
    oracle_value: Fraction
    quantity: str


@dataclass
class VerifyResult:
    trials: int
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _random_component(rng: random.Random, cid: str) -> Component:
    p = Fraction(rng.randint(1, 19), 20)
    lam = Fraction(rng.randint(0, 12), rng.randint(1, 9))
    return Component(cid, p, lam)


def _random_kofn(rng: random.Random, max_components: int, build, structure, name: str):
    """A random k-of-n system from ``build``, with its ``structure``
    function; ``name`` heads the description."""
    n = rng.randint(1, min(12, max_components))
    k = rng.randint(1, n)
    comps = tuple(_random_component(rng, f"c{i}") for i in range(1, n + 1))
    system = build(KofnSpec(k, comps))
    return system, structure([c.id for c in comps], k), f"{name} k={k} n={n}"


def _random_ladder(rng: random.Random, max_components: int):
    # n=1 with fallible nodes is 8 components; larger n uses perfect nodes
    if max_components >= 8 and rng.random() < 0.5:
        n, perfect_nodes = 1, False
    else:
        n = rng.randint(1, min(3, (max_components - 1) // 3))
        perfect_nodes = True

    def node(cid):
        if perfect_nodes:
            return Component(cid, 1, 0)
        return _random_component(rng, cid)

    cells = [entry_cell(_random_component(rng, "b0"), node("S0"), node("T0"))]
    for i in range(1, n + 1):
        cells.append(
            LadderCell(
                a=_random_component(rng, f"a{i}"),
                b=_random_component(rng, f"b{i}"),
                c=_random_component(rng, f"c{i}"),
                S=node(f"S{i}"),
                T=node(f"T{i}"),
                index=i,
            )
        )
    terminal = TERMINAL_S if rng.random() < 0.5 else TERMINAL_T
    spec = LadderSpec(tuple(cells), terminal)
    system = build_ladder(spec)
    sf = ladder_structure(spec)
    return system, sf, f"ladder n={n} terminal={terminal} perfect_nodes={perfect_nodes}"


def _corrupt_system(system: TransferSystem) -> TransferSystem:
    """Test hook: add 1/97 to the first matrix's slot 0, at every position
    that holds it, so equivalence must fail."""
    pair = system.pairs[0]
    layout = pair.layout
    polys = (layout.polys[0] + (((), Fraction(1, 97)),),) + layout.polys[1:]
    bad = MatrixPair(Layout(layout.dim, layout.rows, polys), pair.ids)
    return replace(system, pairs=(bad,) + system.pairs[1:])


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
    corrupt: bool = False,
) -> VerifyResult:
    """Compare transfer-matrix and oracle results on randomized instances;
    stop at the first mismatch."""
    check_sizes(trials, max_components)
    rng = random.Random(seed)
    result = VerifyResult(trials=trials)
    makers = [
        lambda: _random_kofn(rng, max_components, build_kofn_g, kofn_g_structure, "G"),
        lambda: _random_kofn(rng, max_components, build_lincon_f, lincon_f_structure, "LinConF"),
    ]
    if max_components >= 4:  # the smallest ladder has 4 fallible edges
        makers.append(lambda: _random_ladder(rng, max_components))
    for t in range(trials):
        system, sf, desc = makers[t % len(makers)]()
        if corrupt:
            system = _corrupt_system(system)
        probs = {c.id: c.p for c in system.components}
        rates = {c.id: c.lam for c in system.components}
        report = single_pass(system)
        a_oracle, nu_oracle = oracle_solve(sf, probs, rates)
        if report.availability != a_oracle:
            result.mismatches.append(
                Mismatch(system.family, desc, report.availability, a_oracle, "availability")
            )
        elif report.frequency != nu_oracle:
            result.mismatches.append(
                Mismatch(system.family, desc, report.frequency, nu_oracle, "frequency")
            )
        if result.mismatches:
            break
    return result
