"""Brute-force reference: one exhaustive enumeration of the states of a
structure function gives exact availability A and exact failure frequency
nu together, nu from the rate operator sum_i lambda_i p_i d/dp_i applied to
each up state's term.  Deliberately simple and independent of the
transfer-matrix engine; the engine, not the oracle, handles scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Callable, Dict, Mapping, Sequence, Tuple

from .scalars import as_exact

MAX_COMPONENTS = 24


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class StructureFunction:
    """Total Boolean map from component up/down states to system state.

    ``fn`` is passed a dict from every id to True (up) or False (down).  The
    enumeration reuses one dict, changing one entry between calls, so ``fn``
    must not keep or modify the dict it is passed.
    """

    ids: Tuple[str, ...]
    fn: Callable[[Dict[str, bool]], bool]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        if len(set(self.ids)) != len(self.ids):
            raise OracleError("component ids must be distinct")

    def __call__(self, state: Dict[str, bool]) -> bool:
        return bool(self.fn(state))


def kofn_g_structure(ids: Sequence[str], k: int) -> StructureFunction:
    ids = tuple(ids)
    if not (1 <= k <= len(ids)):
        raise OracleError(f"k={k} out of range for n={len(ids)}")
    return StructureFunction(
        ids, lambda s: sum(s[i] for i in ids) >= k, name=f"kofn-g:{k}/{len(ids)}"
    )


def lincon_f_structure(ids: Sequence[str], k: int) -> StructureFunction:
    """Fails iff at least k consecutive components (in list order) are down."""
    ids = tuple(ids)
    if not (1 <= k <= len(ids)):
        raise OracleError(f"k={k} out of range for n={len(ids)}")

    def up(state):
        run = 0
        for i in ids:
            run = 0 if state[i] else run + 1
            if run >= k:
                return False
        return True

    return StructureFunction(ids, up, name=f"lincon-f:{k}/{len(ids)}")


def truth_table_structure(ids: Sequence[str], table: Mapping) -> StructureFunction:
    """Explicit truth table keyed by tuples of booleans in id order."""
    ids = tuple(ids)
    table = dict(table)
    return StructureFunction(
        ids, lambda s: table[tuple(s[i] for i in ids)], name="truth-table"
    )


def connectivity_structure(
    ids: Sequence[str],
    nodes: Sequence[str],
    edges: Sequence[Tuple[str, str, str]],
    source: str,
    terminal: str,
    name: str = "two-terminal",
) -> StructureFunction:
    """s-t connectivity over failing nodes and edges.

    ``edges`` are (edge_id, node_a, node_b).  An edge is usable only if it is
    up and both endpoints are up; ids absent from ``ids`` are treated as
    perfect.  Source and terminal must themselves be up for success.
    """
    ids = tuple(ids)
    id_set = set(ids)
    nodes = tuple(nodes)
    edges = tuple(edges)

    def up(state):
        def node_up(v):
            return state[v] if v in id_set else True

        if not (node_up(source) and node_up(terminal)):
            return False
        # union-find over up nodes via usable edges
        parent = {v: v for v in nodes if node_up(v)}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for eid, a, b in edges:
            euse = state[eid] if eid in id_set else True
            if euse and a in parent and b in parent:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        return find(source) == find(terminal)

    return StructureFunction(ids, up, name=name)


def _half_table(factors):
    """(product of weights, sum of coefficients) of every up/down pattern of
    ids given as ((w_down, c_down), (w_up, c_up)); bit j of an entry's
    index is set when id j is up."""
    table = [(1, 0)]
    for pair in factors:
        table = [(w * fw, c + fc) for fw, fc in pair for w, c in table]
    return table


def oracle_solve(
    sf: StructureFunction, probs: Mapping, rates: Mapping
) -> Tuple[Fraction, Fraction]:
    """(A, nu) of ``sf`` from one exhaustive enumeration of its free ids.

    The rate operator sum_j lambda_j p_j d/dp_j maps a state's term
    w(x) = prod_{i up} p_i prod_{i down} q_i to w(x) c(x), with
    c(x) = sum_{i up} lambda_i - sum_{i down} lambda_i p_i / q_i.  So
    A = sum w(x) and nu = sum w(x) c(x) over the states with phi(x) = 1,
    exactly, for any structure function, monotone or not.  Weights are
    integers over the product of the p denominators, coefficients integers
    over the lcm of theirs.  w and c come from tables over the low and the
    high half of the free ids, and the states are visited in Gray code
    order, each differing from the last in one id.

    Ids with p in {0, 1} are fixed, not enumerated: the p_i factor vanishes
    at p = 0, and a perfect component has no failure rate.  A fixed id's
    rate may be absent, and one at p = 0 is not used.  The values
    :class:`~relfreq.core.Component` rejects raise :class:`OracleError`:
    p outside [0, 1], a negative rate, and a nonzero rate at p = 1.  (The
    transfer-matrix pass is pure algebra and accepts the last.)
    """
    probs = {cid: as_exact(probs[cid]) for cid in sf.ids}
    fixed = {cid: p == 1 for cid, p in probs.items() if p in (0, 1)}
    rates = {cid: as_exact(rates.get(cid, 0) if cid in fixed else rates[cid])
             for cid in sf.ids}
    for cid, p in probs.items():
        if not 0 <= p <= 1 or rates[cid] < 0 or p == 1 and rates[cid] != 0:
            raise OracleError(f"component {cid!r}: p={p} with failure rate "
                              f"{rates[cid]}; need p in [0,1], rate >= 0, and 0 at p=1")
    free = [cid for cid in sf.ids if cid not in fixed]
    m = len(free)
    if m > MAX_COMPONENTS:
        raise OracleError(f"{m} components exceed the enumeration cap of {MAX_COMPONENTS}")
    ps = [probs[cid] for cid in free]
    lams = [rates[cid] for cid in free]
    down = [lam * p / (1 - p) for p, lam in zip(ps, lams)]
    scale = lcm(*(x.denominator for x in lams + down))
    factors = [
        ((p.denominator - p.numerator, int(-d * scale)), (p.numerator, int(lam * scale)))
        for p, lam, d in zip(ps, lams, down)
    ]
    h, mask = m // 2, (1 << m // 2) - 1
    low = [(w, w * c) for w, c in _half_table(factors[:h])]
    high = _half_table(factors[h:])
    sum_w, sum_wc = [0] * len(high), [0] * len(high)

    fn, state, g = sf.fn, {**fixed, **dict.fromkeys(free, False)}, 0
    for i in range(1 << m):
        if i:  # state i of the Gray code flips the lowest set bit of i
            bit = (i & -i).bit_length() - 1
            g ^= 1 << bit
            state[free[bit]] = not state[free[bit]]
        if fn(state):
            w, wc = low[g & mask]
            sum_w[g >> h] += w
            sum_wc[g >> h] += wc

    a = nu = 0
    for (w, c), s_w, s_wc in zip(high, sum_w, sum_wc):
        a += w * s_w
        nu += w * (s_wc + c * s_w)
    denom = prod(p.denominator for p in ps)
    return Fraction(a, denom), Fraction(nu, denom * scale)


def oracle_availability(sf: StructureFunction, probs: Mapping) -> Fraction:
    """Sum over up-states of the product of p_i / q_i, exact rational."""
    return oracle_solve(sf, probs, dict.fromkeys(sf.ids, 0))[0]


def oracle_pivotal(sf: StructureFunction, probs: Mapping, pivot: str):
    """(A with p_pivot := 1, A with p_pivot := 0)."""
    up = {cid: as_exact(probs[cid]) for cid in sf.ids}
    up[pivot] = Fraction(1)
    down = dict(up)
    down[pivot] = Fraction(0)
    return oracle_availability(sf, up), oracle_availability(sf, down)


def oracle_frequency(sf: StructureFunction, probs: Mapping, rates: Mapping) -> Fraction:
    """sum_i lambda_i p_i dA/dp_i, exact: the second half of :func:`oracle_solve`."""
    return oracle_solve(sf, probs, rates)[1]


def is_monotone(sf: StructureFunction) -> bool:
    """Check coherence by sampling every single-bit upgrade."""
    n = len(sf.ids)
    if n > 16:
        raise OracleError("monotonicity check capped at 16 components")
    for bits in itertools.product((True, False), repeat=n):
        state = dict(zip(sf.ids, bits))
        val = sf(state)
        for cid, b in zip(sf.ids, bits):
            if not b:
                upgraded = dict(state)
                upgraded[cid] = True
                if val and not sf(upgraded):
                    return False
    return True
