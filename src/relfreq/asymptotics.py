"""Eigenvalue analysis of the identical-component ladder cell and the
large-size behaviour of its failure rate.

The dominant eigenvalue zeta+ controls growth: for large n the availability
behaves like alpha+ * zeta+^n, so the failure rate grows linearly with n
with slope lam * dln(zeta+)/dln(p).  For perfect nodes the two logarithmic
derivatives have closed forms; in the highly-reliable limit the rate tends
to (2n + 4) * lam * q.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, FrozenSet, List, Tuple

from .core import Component
from .ladder import (
    TERMINAL_S, TERMINAL_T, LadderSpec, discriminant, distinct_ladder_cells,
    eigen_symmetric_parts, ladder_structure,
)


class AsymptoticsError(ValueError):
    pass


def eigenvalues(p: float, rho: float = 1.0) -> Tuple[float, float, float]:
    """(zeta0, zeta+, zeta-) of the identical-component cell matrix."""
    if not (0 <= p <= 1 and 0 <= rho <= 1):
        raise AsymptoticsError("p and rho must lie in [0,1]")
    zeta0, trace, _ = eigen_symmetric_parts(p, rho)
    root = p * rho * math.sqrt(discriminant(p, rho))
    return zeta0, (trace + root) / 2, (trace - root) / 2


def log_derivatives(p: float) -> Tuple[float, float]:
    """(dln zeta+/dln p, dln alpha+/dln p) for perfect nodes, 0 < p < 1."""
    if not (0 < p < 1):
        raise AsymptoticsError("log derivatives require 0 < p < 1")
    b = discriminant(p)
    root = math.sqrt(b)
    d_zeta = (-1 + 4 * p - 6 * p**2 + 4 * p**3 + (3 - 4 * p) * root) / (
        2 * (1 - p) * root
    )
    d_alpha = (
        4 - 5 * p + 8 * p**2 - 20 * p**3 + 16 * p**4 - 4 * p**5
        - (4 - 7 * p + 4 * p**2 - 2 * p**3) * root
    ) / (2 * (1 - p) * b)
    return d_zeta, d_alpha


def dominant_amplitude(p: float) -> float:
    """alpha+, the limit of R_Tn / zeta+^n in :func:`ladder.ladder_closed_form`
    for perfect nodes: (p (1 + p) zeta+ - zeta+ zeta-) / (2 p (zeta+ - zeta-)).
    Where that denominator is 0 in floats (p = 0, or p so small that the
    product underflows) it raises :class:`AsymptoticsError`."""
    _, zp, zm = eigenvalues(p, 1.0)
    denominator = 2 * p * (zp - zm)
    if denominator == 0:
        raise AsymptoticsError(f"alpha+ is undefined at p={p}: 2p(zeta+ - zeta-) is 0")
    return (p * (1 + p) * zp - zp * zm) / denominator


def asymptotic_rate(p: float, n: int, lam: float) -> float:
    """Large-n failure rate, lam * (dln alpha+/dln p + n * dln zeta+/dln p)."""
    d_zeta, d_alpha = log_derivatives(p)
    return lam * (d_alpha + n * d_zeta)


def first_order_rate(n: int, lam: float, q: float) -> float:
    """Highly-reliable limit with perfect nodes: (2n + 4) * lam * q."""
    return (2 * n + 4) * lam * q


def _maximize(fn, lo=1e-6, hi=1 - 1e-6) -> Tuple[float, float]:
    """(x, fn(x)) at the maximum of a unimodal fn on [lo, hi], by golden-section
    search down to a bracket 1e-10 wide."""
    r = (math.sqrt(5) - 1) / 2
    x1, x2 = hi - r * (hi - lo), lo + r * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > 1e-10:
        if f1 < f2:  # the maximum lies in [x1, hi]; the old x2 is the new x1
            lo, x1, f1 = x1, x2, f2
            x2 = lo + r * (hi - lo)
            f2 = fn(x2)
        else:  # the maximum lies in [lo, x2]; the old x1 is the new x2
            hi, x2, f2 = x2, x1, f1
            x1 = hi - r * (hi - lo)
            f1 = fn(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def log_derivative_maxima() -> Dict[str, Tuple[float, float]]:
    """Locations and values of the maxima of the two log-derivatives.

    Returns {"zeta": (p*, value), "alpha": (p*, value)}.
    """
    p_z, v_z = _maximize(lambda p: log_derivatives(p)[0])
    p_a, v_a = _maximize(lambda p: log_derivatives(p)[1])
    return {"zeta": (p_z, v_z), "alpha": (p_a, v_a)}


# ---------------------------------------------------------------------------
# Minimal-cut enumeration (perfect nodes)


def minimal_cuts_size2(n: int, terminal: str = "S") -> List[FrozenSet[str]]:
    """All minimal edge cuts of size 2 between S0 and the cell-n terminal.

    The cuts are read off :func:`ladder.ladder_structure` for an n-cell
    ladder with perfect nodes: a set of edges is a cut when the structure
    function fails with those edges down and every other edge up.
    """
    if terminal not in ("S", "T"):
        raise AsymptoticsError("terminal must be 'S' or 'T'")

    def edge(cid):
        return Component(cid, Fraction(1, 2))

    def node(cid):
        return Component(cid, 1)

    cells = distinct_ladder_cells(n, edge, node)
    spec = LadderSpec(cells, TERMINAL_S if terminal == "S" else TERMINAL_T)
    structure = ladder_structure(spec)
    components = [comp for cell in cells for comp in cell.components()]
    ids = ["b0"] + [comp.id for cell in cells[1:] for comp in (cell.a, cell.c, cell.b)]

    def connected(removed) -> bool:
        # the absent rail (p = 0) stays down; every other component not removed is up
        return structure({c.id: c.p > 0 and c.id not in removed for c in components})

    bridges = {eid for eid in ids if not connected({eid})}
    # a pair holding a bridge is not minimal: the single edge already cuts
    pairs = (frozenset(pair) for pair in itertools.combinations(ids, 2))
    return [fp for fp in pairs if not fp & bridges and not connected(fp)]
