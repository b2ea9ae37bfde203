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
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from scipy.optimize import minimize_scalar

from .ladder import LadderIdenticalParams, ladder_closed_form


class AsymptoticsError(ValueError):
    pass


@dataclass(frozen=True)
class LadderAsymptotics:
    zeta0: float
    zeta_plus: float
    zeta_minus: float
    alpha_plus: float
    d_ln_zeta: float
    d_ln_alpha: float


def discriminant(p: float, rho: float = 1.0) -> float:
    return 1 + 4 * p**2 * rho - 8 * p**3 * rho**2 + 4 * p**4 * rho**2


def eigenvalues(p: float, rho: float = 1.0) -> Tuple[float, float, float]:
    """(zeta0, zeta+, zeta-) of the identical-component cell matrix."""
    if not (0 <= p <= 1 and 0 <= rho <= 1):
        raise AsymptoticsError("p and rho must lie in [0,1]")
    zeta0 = p * rho * (1 - p * rho)
    root = math.sqrt(discriminant(p, rho))
    base = p * rho / 2
    zp = base * (1 + 2 * p * (1 - p) * rho + root)
    zm = base * (1 + 2 * p * (1 - p) * rho - root)
    return zeta0, zp, zm


def log_derivatives(p: float) -> Tuple[float, float]:
    """(dln zeta+/dln p, dln alpha+/dln p) for perfect nodes, 0 < p < 1."""
    if not (0 < p < 1):
        raise AsymptoticsError("log derivatives require 0 < p < 1")
    b = 1 + 4 * p**2 * (1 - p) ** 2
    root = math.sqrt(b)
    d_zeta = (-1 + 4 * p - 6 * p**2 + 4 * p**3 + (3 - 4 * p) * root) / (
        2 * (1 - p) * root
    )
    d_alpha = (
        4 - 5 * p + 8 * p**2 - 20 * p**3 + 16 * p**4 - 4 * p**5
        - (4 - 7 * p + 4 * p**2 - 2 * p**3) * root
    ) / (2 * (1 - p) * b)
    return d_zeta, d_alpha


def dominant_amplitude(p: float, n_fit: int = 60) -> float:
    """alpha+ extracted from the closed form: R_Tn / zeta+^n at large n."""
    _, zp, _ = eigenvalues(p, 1.0)
    params = LadderIdenticalParams(p, 1.0, 0.0, 0.0, n_fit)
    _, r_t = ladder_closed_form(params, mode="approx")
    return r_t / zp**n_fit


def ladder_asymptotics(p: float) -> LadderAsymptotics:
    zeta0, zp, zm = eigenvalues(p, 1.0)
    d_zeta, d_alpha = log_derivatives(p)
    return LadderAsymptotics(
        zeta0=zeta0,
        zeta_plus=zp,
        zeta_minus=zm,
        alpha_plus=dominant_amplitude(p),
        d_ln_zeta=d_zeta,
        d_ln_alpha=d_alpha,
    )


def asymptotic_rate(p: float, n: int, lam: float) -> float:
    """Large-n failure rate, lam * (dln alpha+/dln p + n * dln zeta+/dln p)."""
    d_zeta, d_alpha = log_derivatives(p)
    return lam * (d_alpha + n * d_zeta)


def first_order_rate(n: int, lam: float, q: float) -> float:
    """Highly-reliable limit with perfect nodes: (2n + 4) * lam * q."""
    return (2 * n + 4) * lam * q


def _maximize(fn, lo=1e-6, hi=1 - 1e-6) -> Tuple[float, float]:
    res = minimize_scalar(
        lambda p: -fn(p), bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.x), float(-res.fun)


def log_derivative_maxima() -> Dict[str, Tuple[float, float]]:
    """Locations and values of the maxima of the two log-derivatives.

    Returns {"zeta": (p*, value), "alpha": (p*, value)}.
    """
    p_z, v_z = _maximize(lambda p: log_derivatives(p)[0])
    p_a, v_a = _maximize(lambda p: log_derivatives(p)[1])
    return {"zeta": (p_z, v_z), "alpha": (p_a, v_a)}


# ---------------------------------------------------------------------------
# Minimal-cut enumeration (perfect nodes)


def ladder_edges(n: int) -> List[Tuple[str, str, str]]:
    """Fallible edges of an n-cell ladder: rung b0 plus (a_i, b_i, c_i)."""
    edges = [("b0", "S0", "T0")]
    for i in range(1, n + 1):
        edges.append((f"a{i}", f"S{i-1}", f"S{i}"))
        edges.append((f"c{i}", f"T{i-1}", f"T{i}"))
        edges.append((f"b{i}", f"S{i}", f"T{i}"))
    return edges


def _connected(edges, removed: FrozenSet[str], source: str, terminal: str) -> bool:
    adj: Dict[str, list] = {}
    for eid, u, v in edges:
        if eid in removed:
            continue
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        if u == terminal:
            return True
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return False


def minimal_cuts_size2(n: int, terminal: str = "S") -> List[FrozenSet[str]]:
    """All minimal edge cuts of size 2 between S0 and the cell-n terminal."""
    if terminal not in ("S", "T"):
        raise AsymptoticsError("terminal must be 'S' or 'T'")
    edges = ladder_edges(n)
    target = f"{terminal}{n}"
    ids = [e[0] for e in edges]
    bridges = {
        eid for eid in ids if not _connected(edges, frozenset([eid]), "S0", target)
    }
    cuts = []
    for pair in itertools.combinations(ids, 2):
        fp = frozenset(pair)
        if fp & bridges:
            continue  # not minimal: a single edge already cuts
        if not _connected(edges, fp, "S0", target):
            cuts.append(fp)
    return cuts
