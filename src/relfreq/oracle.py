"""Brute-force reference: one exhaustive enumeration of the states of a
structure function gives exact availability A and exact failure frequency
nu together, nu from the rate operator sum_i lambda_i p_i d/dp_i applied to
each up state's term.  Deliberately simple and independent of the
transfer-matrix engine; the engine, not the oracle, handles scale.

A state is one int, a mask over the structure function's ids: bit j is set
when ``ids[j]`` is up.  The library's structure functions are written on
masks, and calling one with a mapping from ids to truth values converts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm, prod
from typing import Callable, Mapping, Sequence, Tuple

from .scalars import as_exact

MAX_COMPONENTS = 24


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class StructureFunction:
    """Total Boolean map from component up/down states to system state.

    ``fn`` is passed a state as one int: bit j is set when ``ids[j]`` is up.
    Calling the structure function itself takes a mapping from every id to
    True (up) or False (down) and passes ``fn`` its mask.
    """

    ids: Tuple[str, ...]
    fn: Callable[[int], bool]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        if len(set(self.ids)) != len(self.ids):
            raise OracleError("component ids must be distinct")

    def __call__(self, state: Mapping[str, bool]) -> bool:
        return bool(self.fn(sum(1 << j for j, cid in enumerate(self.ids) if state[cid])))


def kofn_g_structure(ids: Sequence[str], k: int) -> StructureFunction:
    ids = tuple(ids)
    if not (1 <= k <= len(ids)):
        raise OracleError(f"k={k} out of range for n={len(ids)}")
    return StructureFunction(ids, lambda x: x.bit_count() >= k, name=f"kofn-g:{k}/{len(ids)}")


def lincon_f_structure(ids: Sequence[str], k: int) -> StructureFunction:
    """Fails iff at least k consecutive components (in list order) are down.

    Bit i of ``d & d >> 1 & ... & d >> (s - 1)`` is set when the down mask d
    has a run of s set bits from bit i.  Runs of s and t <= s set bits
    starting t apart join into one of s + t, so doubling s and then one
    last shift of k - s find a run of k in O(log k) shift-ANDs.
    """
    ids = tuple(ids)
    if not (1 <= k <= len(ids)):
        raise OracleError(f"k={k} out of range for n={len(ids)}")
    full, shifts, s = (1 << len(ids)) - 1, [], 1
    while 2 * s <= k:
        shifts.append(s)
        s *= 2
    if k > s:
        shifts.append(k - s)

    def up(x):
        d = ~x & full
        for shift in shifts:
            d &= d >> shift
        return not d

    return StructureFunction(ids, up, name=f"lincon-f:{k}/{len(ids)}")


def truth_table_structure(ids: Sequence[str], table: Mapping) -> StructureFunction:
    """Explicit truth table keyed by tuples of booleans in id order."""
    ids = tuple(ids)
    by_mask = {
        sum(1 << j for j, up in enumerate(bits) if up): value for bits, value in table.items()
    }
    return StructureFunction(ids, by_mask.__getitem__, name="truth-table")


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

    Each edge needs the bits of those of its edge and end nodes that can
    fail; a state is up when a search from the source along the edges whose
    bits are all set reaches the terminal.
    """
    ids = tuple(ids)
    bit = {cid: 1 << j for j, cid in enumerate(ids)}
    index = {v: i for i, v in enumerate(dict.fromkeys(nodes))}
    if source not in index or terminal not in index:
        raise OracleError("source and terminal must be nodes")
    s, t = index[source], index[terminal]
    ends = bit.get(source, 0) | bit.get(terminal, 0)
    adjacent = [[] for _ in index]
    for eid, a, b in edges:
        if a in index and b in index:
            need = bit.get(eid, 0) | bit.get(a, 0) | bit.get(b, 0)
            adjacent[index[a]].append((need, index[b]))
            adjacent[index[b]].append((need, index[a]))

    def up(x):
        if x & ends != ends:
            return False
        seen, todo = 1 << s, [s]
        while todo:
            for need, w in adjacent[todo.pop()]:
                if not seen >> w & 1 and x & need == need:
                    if w == t:
                        return True
                    seen |= 1 << w
                    todo.append(w)
        return s == t

    return StructureFunction(ids, up, name=name)


def _half_table(factors):
    """(mask, product of weights, sum of coefficients) of every up/down
    pattern of ids given as (bit, (w_down, c_down), (w_up, c_up)); bit j of
    an entry's index is set when id j is up, and the mask ORs their bits."""
    table = [(0, 1, 0)]
    for bit, (dw, dc), (uw, uc) in factors:
        table = [(x, w * dw, c + dc) for x, w, c in table] + [
            (x | bit, w * uw, c + uc) for x, w, c in table
        ]
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
    over the lcm of theirs.  Masks, w and c come from tables over the low
    and the high half of the free ids: each state is the mask of the
    fixed-up ids ORed with a high-half and a low-half mask.

    Ids with p in {0, 1} are fixed, not enumerated: the p_i factor vanishes
    at p = 0, and a perfect component has no failure rate.  A fixed id's
    rate may be absent, and one at p = 0 is not used.  The values
    :class:`~relfreq.core.Component` rejects raise :class:`OracleError`:
    p outside [0, 1], a negative rate, and a nonzero rate at p = 1.  (The
    transfer-matrix pass is pure algebra and accepts the last.)
    """
    probs = {cid: as_exact(probs[cid]) for cid in sf.ids}
    fixed = {cid for cid, p in probs.items() if p in (0, 1)}
    rates = {cid: as_exact(rates.get(cid, 0) if cid in fixed else rates[cid])
             for cid in sf.ids}
    for cid, p in probs.items():
        if not 0 <= p <= 1 or rates[cid] < 0 or p == 1 and rates[cid] != 0:
            raise OracleError(f"component {cid!r}: p={p} with failure rate "
                              f"{rates[cid]}; need p in [0,1], rate >= 0, and 0 at p=1")
    free = [j for j, cid in enumerate(sf.ids) if cid not in fixed]
    m = len(free)
    if m > MAX_COMPONENTS:
        raise OracleError(f"{m} components exceed the enumeration cap of {MAX_COMPONENTS}")
    ps = [probs[sf.ids[j]] for j in free]
    lams = [rates[sf.ids[j]] for j in free]
    down = [lam * p / (1 - p) for p, lam in zip(ps, lams)]
    scale = lcm(*(x.denominator for x in lams + down))
    factors = [
        (1 << j, (p.denominator - p.numerator, int(-d * scale)), (p.numerator, int(lam * scale)))
        for j, p, lam, d in zip(free, ps, lams, down)
    ]
    fixed_up = sum(1 << j for j, cid in enumerate(sf.ids) if probs[cid] == 1)
    low_masks, low_w, low_c = zip(*_half_table(factors[: m // 2]))
    low_wc = [w * c for w, c in zip(low_w, low_c)]

    fn, a, nu = sf.fn, 0, 0
    for x, w, c in _half_table(factors[m // 2:]):
        up = list(map(fn, map((fixed_up | x).__or__, low_masks)))
        s_w = sum(compress(low_w, up))
        a += w * s_w
        nu += w * (sum(compress(low_wc, up)) + c * s_w)
    denom = prod(p.denominator for p in ps)
    return Fraction(a, denom), Fraction(nu, denom * scale)


def oracle_availability(sf: StructureFunction, probs: Mapping) -> Fraction:
    """Sum over up-states of the product of p_i / q_i, exact rational."""
    return oracle_solve(sf, probs, dict.fromkeys(sf.ids, 0))[0]


def oracle_frequency(sf: StructureFunction, probs: Mapping, rates: Mapping) -> Fraction:
    """sum_i lambda_i p_i dA/dp_i, exact: the second half of :func:`oracle_solve`."""
    return oracle_solve(sf, probs, rates)[1]

