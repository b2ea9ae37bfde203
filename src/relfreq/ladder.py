"""Two-terminal availability and failure frequency of a simple ladder.

Cell i contributes rail edges a_i (top) and c_i (bottom), rung b_i, and
nodes S_i, T_i; edge a_i joins S_{i-1} to S_i, c_i joins T_{i-1} to T_i,
and b_i joins S_i to T_i.  The source is S_0; cell 0 therefore has a
perfect entry edge (a_0 = 1) and no bottom rail (c_0 = 0).  Each cell maps
to one 3x3 transfer matrix, all nine entries nonzero polynomials; the
availability between S_0 and S_n or T_n is a product of those matrices.
For identical cells the closed form in the three eigenvalues is evaluated
through a power of the 2x2 companion matrix of the pair zeta+, zeta-, whose
entries are rational, so exact inputs give exact outputs with no square
roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .core import (
    Component,
    Layout,
    MatrixPair,
    ReliabilityError,
    ReliabilityReport,
    Runs,
    TransferSystem,
    read_field,
    single_pass,
)
from .oracle import StructureFunction, connectivity_structure
from .scalars import EXACT, check_mode, convert

TERMINAL_S = "Sn"
TERMINAL_T = "Tn"


@dataclass(frozen=True)
class LadderCell:
    """Edges a (top rail), b (rung), c (bottom rail) and nodes S, T of one cell."""

    a: Component
    b: Component
    c: Component
    S: Component
    T: Component
    index: int = 0  # read by nothing; kept while perfbench's approx-stream sets it

    def components(self) -> Tuple[Component, ...]:
        return (self.a, self.b, self.c, self.S, self.T)


@dataclass(frozen=True)
class LadderSpec:
    """Cells 0..n in order and the terminal, S_n or T_n.  ``cells`` is stored
    as :class:`Runs`: any sequence of cells is accepted, and one given as a
    ``Runs`` is kept unexpanded, so a run of one shared cell object costs
    O(1) however long it is."""

    cells: Runs
    terminal: str = TERMINAL_T

    def __post_init__(self):
        object.__setattr__(self, "cells", Runs(self.cells))
        if not self.cells:
            raise ReliabilityError("ladder needs at least cell 0")
        if self.terminal not in (TERMINAL_S, TERMINAL_T):
            raise ReliabilityError(f"unknown terminal {self.terminal!r}")
        first = self.cells.runs[0][0]
        if first.a.p != 1 or first.a.lam != 0:
            raise ReliabilityError("cell 0 must have a perfect entry edge (a=1, rate 0)")
        if first.c.p != 0:
            raise ReliabilityError("cell 0 must have no bottom rail (c=0)")

    @property
    def n(self) -> int:
        return self.cells.length - 1


@dataclass(frozen=True)
class LadderIdenticalParams:
    """Identical edge availability p and node availability rho, with common
    edge failure rate lam and node failure rate xi, for n cells past cell 0.
    p, rho, lam and xi are stored as Fractions and n as an int, each read by
    :func:`~relfreq.core.read_field`, so a value that does not read is a
    :class:`ReliabilityError` naming it."""

    p: Fraction
    rho: Fraction
    lam: Fraction
    xi: Fraction
    n: int

    def __post_init__(self):
        for name in ("p", "rho", "lam", "xi", "n"):
            object.__setattr__(self, name, read_field(name, getattr(self, name), integer=name == "n"))
        if not (0 <= self.p <= 1 and 0 <= self.rho <= 1):
            raise ReliabilityError("p and rho must lie in [0,1]")
        if self.lam < 0 or self.xi < 0:
            raise ReliabilityError("rates must be nonnegative")
        if self.n < 0:
            raise ReliabilityError("n must be nonnegative")


def entry_cell(b: Component, S: Component, T: Component) -> LadderCell:
    """Cell 0: perfect entry edge, absent bottom rail."""
    return LadderCell(
        a=Component("__entry__", 1, 0),
        b=b,
        c=Component("__no_rail__", 0, 0),
        S=S,
        T=T,
    )


def distinct_ladder_cells(n: int, edge, node) -> Tuple[LadderCell, ...]:
    """Cells 0..n whose components all have distinct ids: ``edge(id)`` makes
    b0 and each a_i, b_i, c_i, and ``node(id)`` each S_i and T_i, called
    cell by cell in the order b0, S0, T0, then a_i, b_i, c_i, S_i, T_i."""
    cells = [entry_cell(edge("b0"), node("S0"), node("T0"))]
    for i in range(1, n + 1):
        cells.append(LadderCell(
            edge(f"a{i}"), edge(f"b{i}"), edge(f"c{i}"), node(f"S{i}"), node(f"T{i}")
        ))
    return tuple(cells)


# Variables 0-4 are the cell's S, T, a, b, c: a term multiplies its
# factors in this order, fixed here, whatever ids a cell binds, so float
# results depend neither on the hash seed nor on the ids.  Slots 0-7 hold
# the entries, and positions (0, 2) and (1, 2) share slot 2.
_S, _T, _A, _B, _C = range(5)
_CELL_LAYOUT = Layout(
    3,
    (((0, 0), (1, 1), (2, 2)),
     ((0, 3), (1, 4), (2, 2)),
     ((0, 5), (1, 6), (2, 7))),
    ({(_A, _S): 1}, {(_B, _C, _S, _T): 1}, {(_A, _B, _C, _S, _T): 1},
     {(_A, _B, _S, _T): 1}, {(_C, _T): 1},
     {(_A, _B, _S, _T): -1}, {(_B, _C, _S, _T): -1},
     {(_A, _C, _S, _T): 1, (_A, _B, _C, _S, _T): -2}),
)


def cell_matrix_pair(cell: LadderCell) -> MatrixPair:
    """The cell's 3x3 transfer matrix: the one cell layout that every
    cell's pair shares, bound to the cell's component ids."""
    return MatrixPair(_CELL_LAYOUT, (cell.S.id, cell.T.id, cell.a.id, cell.b.id, cell.c.id))


def build_ladder(spec: LadderSpec) -> TransferSystem:
    """Transfer system for a ladder; vL selects the S_n or T_n terminal.
    Each cell object gets one pair object, so each run of cells becomes a
    run of pairs: only the runs are visited, and the chain is never
    expanded.  The system keeps one of each id among the cells' components
    and rejects an id given different values."""
    pair_cache: Dict[int, MatrixPair] = {}
    components = []
    runs = []
    for cell, r in spec.cells.runs:
        if id(cell) not in pair_cache:
            pair_cache[id(cell)] = cell_matrix_pair(cell)
            components += cell.components()
        runs.append((pair_cache[id(cell)], r))
    if spec.terminal == TERMINAL_S:
        v_left = (Fraction(1), Fraction(0), Fraction(0))
    else:
        v_left = (Fraction(0), Fraction(1), Fraction(0))
    shared = len({comp.id for comp in components}) < 5 * spec.cells.length
    return TransferSystem(
        v_left=v_left,
        pairs=Runs.from_runs(runs),
        v_right=(Fraction(1), Fraction(0), Fraction(0)),
        components=components,
        family=f"ladder:{spec.n}:{spec.terminal}{':shared' if shared else ''}",
    )


def identical_ladder_spec(params: LadderIdenticalParams, terminal: str = TERMINAL_T) -> LadderSpec:
    """Ladder with one shared interior cell object.

    All interior cells reuse the same five component ids and one cell
    object, stored as the runs [(cell 0, 1), (interior, n)], so building
    the system costs O(1) and the single pass evaluates the cell matrix once
    and advances through the n cells in O(log n) steps by powers of it.
    """
    p, rho = params.p, params.rho
    lam = Fraction(0) if p == 1 else params.lam
    xi = Fraction(0) if rho == 1 else params.xi
    cell0 = entry_cell(
        b=Component("b0", p, lam),
        S=Component("S0", rho, xi),
        T=Component("T0", rho, xi),
    )
    interior = LadderCell(
        a=Component("a", p, lam),
        b=Component("b", p, lam),
        c=Component("c", p, lam),
        S=Component("S", rho, xi),
        T=Component("T", rho, xi),
    )
    return LadderSpec(Runs.from_runs([(cell0, 1), (interior, params.n)]), terminal)


def ladder_structure(spec: LadderSpec) -> StructureFunction:
    """Independent s-t connectivity structure function for a ladder spec.

    Perfect (p=1) and absent (p=0) components are folded out by the oracle's
    enumeration; ids must be globally distinct for the oracle to make sense.
    """
    nodes = []
    edges = []
    ids = []
    cells = tuple(spec.cells)
    for i, cell in enumerate(cells):
        nodes += [cell.S.id, cell.T.id]
        if i > 0:
            prev = cells[i - 1]
            edges.append((cell.a.id, prev.S.id, cell.S.id))
            edges.append((cell.c.id, prev.T.id, cell.T.id))
        edges.append((cell.b.id, cell.S.id, cell.T.id))
        ids += [c.id for c in cell.components()]
    if len(set(ids)) != len(ids):
        raise ReliabilityError("oracle requires distinct component ids per cell")
    last = cells[-1]
    terminal = last.S.id if spec.terminal == TERMINAL_S else last.T.id
    return connectivity_structure(
        ids=ids,
        nodes=nodes,
        edges=edges,
        source=cells[0].S.id,
        terminal=terminal,
    )


# ---------------------------------------------------------------------------
# Identical-component closed forms


def discriminant(p, rho=1):
    """The cell discriminant: zeta+- = (zeta+ + zeta- +- p*rho*sqrt(disc)) / 2."""
    return 1 + 4 * p**2 * rho - 8 * p**3 * rho**2 + 4 * p**4 * rho**2


def eigen_symmetric_parts(p, rho):
    """(zeta0, zeta+ + zeta-, zeta+ * zeta-) -- all rational in p and rho."""
    zeta0 = p * rho * (1 - p * rho)
    trace_pm = p * rho * (1 + 2 * p * (1 - p) * rho)
    prod_pm = (p * rho) ** 3 * (1 - 2 * p + p * rho)
    return zeta0, trace_pm, prod_pm


def ladder_closed_form(params: LadderIdenticalParams, mode: str = EXACT):
    """(R_Sn, R_Tn) for identical components.

    Exact mode returns rationals: the two closed forms only involve the
    symmetric functions t = zeta+ + zeta- and d = zeta+ * zeta- of the
    eigenvalue pair, so no square root appears.  The two results differ
    exactly by zeta0^(n+1)/p.  h_j = (zeta+^j - zeta-^j)/(zeta+ - zeta-)
    obeys h_{j+1} = t h_j - d h_{j-1} with h_0 = 0, h_1 = 1, so (h_{n+1}, h_n)
    is [[t, -d], [1, 0]]^n (1, 0) (for zeta+ = zeta- it is the limit
    j * zeta^(j-1)).  Both forms share w . (h_{n+1}, h_n), which
    :func:`single_pass` gives as the availability of one run of n companion
    steps with left vector w.
    """
    check_mode(mode)
    p = convert(params.p, mode)
    rho = convert(params.rho, mode)
    n = params.n
    if p == 0:
        return (convert(0, mode), convert(0, mode))
    zeta0, t, d = eigen_symmetric_parts(p, rho)
    companion = MatrixPair.from_entries(2, [(0, 0, {(): t}), (0, 1, {(): -d}), (1, 0, {(): 1})])
    weights = (p * rho * (1 + p * rho), -d)
    system = TransferSystem(weights, Runs.from_runs([(companion, n)]), (1, 0))
    common = single_pass(system, {}, mode).availability
    r_s = (zeta0 ** (n + 1) + common) / (2 * p)
    r_t = (-(zeta0 ** (n + 1)) + common) / (2 * p)
    return r_s, r_t


def ladder_frequency(
    params: LadderIdenticalParams, terminal: str = TERMINAL_T, mode: str = EXACT
) -> ReliabilityReport:
    """Availability and failure frequency for the identical-component ladder,
    computed by the component-level rate operator through the matrix pass."""
    spec = identical_ladder_spec(params, terminal=terminal)
    system = build_ladder(spec)
    return single_pass(system, mode=mode)
