"""Brute-force reference: one exhaustive enumeration of the states of a
structure function gives exact availability A and exact failure frequency
nu together, nu from the rate operator sum_i lambda_i p_i d/dp_i applied to
each up state's term.  Deliberately simple and independent of the
transfer-matrix engine; the engine, not the oracle, handles scale.

States are bit-sliced (Knuth, TAOCP 4A, 7.1.3): a set of states is one int
whose bit x stands for state x.  A structure function takes one such set
per id, the states in which that id is up, and returns the set of up
states, so one call judges a whole block of states with a few bitwise
operations per id.  The enumeration makes one call per block of at most
``2**BLOCK_BITS`` states.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress, product
from math import lcm, prod
from operator import and_
from typing import Callable, Mapping, Sequence, Tuple

from .scalars import as_exact

MAX_COMPONENTS = 24
BLOCK_BITS = 12


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class StructureFunction:
    """Total Boolean map from component up/down states to system state.

    ``fn(cols, full)`` judges a set of states at once.  ``full`` is an int
    bitset of every state in the set, and ``cols[j]`` the subset in which
    ``ids[j]`` is up; ``fn`` returns the subset of up states.  It may use
    only ``&``, ``|``, ``^`` and the complement ``full & ~x``, so it acts on
    each bit alone: with 0/1 columns and ``full = 1`` it judges one state,
    and with truth-table columns it judges every state of a block.  Calling
    the structure function itself takes a mapping from every id to True (up)
    or False (down) and judges that one state.
    """

    ids: Tuple[str, ...]
    fn: Callable[[Sequence[int], int], int]

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        if len(set(self.ids)) != len(self.ids):
            raise OracleError("component ids must be distinct")

    def __call__(self, state: Mapping[str, bool]) -> bool:
        return bool(self.fn([1 if state[cid] else 0 for cid in self.ids], 1) & 1)


def _check_k(ids, k):
    if not (1 <= k <= len(ids)):
        raise OracleError(f"k={k} out of range for n={len(ids)}")


def kofn_g_structure(ids: Sequence[str], k: int) -> StructureFunction:
    """Up iff at least k components are up.  ``at_least[t]`` holds the
    states with at least t of the columns read so far up."""
    ids = tuple(ids)
    _check_k(ids, k)

    def up(cols, full):
        at_least = [full] + [0] * k
        for i, c in enumerate(cols):
            for t in range(min(k, i + 1), 0, -1):
                at_least[t] |= at_least[t - 1] & c
        return at_least[k]

    return StructureFunction(ids, up)


def lincon_f_structure(ids: Sequence[str], k: int) -> StructureFunction:
    """Fails iff at least k consecutive components (in list order) are down:
    the failed states are the OR over every window of k consecutive ids of
    the AND of their down columns."""
    ids = tuple(ids)
    _check_k(ids, k)

    def up(cols, full):
        down = [full & ~c for c in cols]
        failed = 0
        for i in range(len(down) - k + 1):
            failed |= reduce(and_, down[i:i + k])
        return full & ~failed

    return StructureFunction(ids, up)


def truth_table_structure(ids: Sequence[str], table: Mapping) -> StructureFunction:
    """Explicit truth table keyed by tuples of booleans in id order: the OR,
    over the rows whose value is true, of the product of their literals.

    Raises :class:`OracleError` unless the table holds exactly one row for
    each of the ``2**n`` tuples of n booleans.
    """
    ids = tuple(ids)
    n = len(ids)
    rows = set(product((False, True), repeat=n))
    malformed = sum(key not in rows for key in table)
    if malformed or len(table) != len(rows):
        raise OracleError(
            f"a truth table over {n} ids needs one row for each of the {len(rows)} "
            f"tuples of {n} booleans; it has {len(table)} rows, {malformed} of them malformed")
    true_rows = [bits for bits, value in table.items() if value]

    def up(cols, full):
        down = [full & ~c for c in cols]
        out = 0
        for bits in true_rows:
            term = full
            for c, d, b in zip(cols, down, bits):
                term &= c if b else d
            out |= term
        return out

    return StructureFunction(ids, up)


def connectivity_structure(
    ids: Sequence[str],
    nodes: Sequence[str],
    edges: Sequence[Tuple[str, str, str]],
    source: str,
    terminal: str,
) -> StructureFunction:
    """s-t connectivity over failing nodes and edges.

    ``edges`` are (edge_id, node_a, node_b).  An edge is usable only if it is
    up and both endpoints are up; ids absent from ``ids`` are treated as
    perfect.  Source and terminal must themselves be up for success.

    Each edge needs the columns of those of its edge and end nodes that can
    fail; their AND is the set of states in which it is usable.  The source
    is reached in the states where it and the terminal are up, and a node in
    the states where some usable edge joins it to a reached node: growing
    these sets until none changes reaches the terminal in the up states.
    """
    ids = tuple(ids)
    col = {cid: j for j, cid in enumerate(ids)}
    index = {v: i for i, v in enumerate(dict.fromkeys(nodes))}
    if source not in index or terminal not in index:
        raise OracleError("source and terminal must be nodes")
    s, t = index[source], index[terminal]
    ends = [col[v] for v in (source, terminal) if v in col]
    links = [
        (index[a], index[b], [col[v] for v in (eid, a, b) if v in col])
        for eid, a, b in edges
        if a in index and b in index
    ]

    def up(cols, full):
        usable = [(a, b, reduce(and_, (cols[j] for j in need), full)) for a, b, need in links]
        reach = [0] * len(index)
        reach[s] = reduce(and_, (cols[j] for j in ends), full)
        changed = True
        while changed:
            changed = False
            for a, b, u in usable:
                for v, w in ((a, b), (b, a)):
                    grown = reach[w] | reach[v] & u
                    if grown != reach[w]:
                        reach[w], changed = grown, True
        return reach[t]

    return StructureFunction(ids, up)


def _state_columns(bits):
    """The ``bits`` truth-table columns of ``2**bits`` states: bit x of
    column t is bit t of x.  Each is built by doubling one run of ones, as
    dividing big ints is quadratic."""
    out = []
    for t in range(bits):
        run = 1 << t
        column, width = ((1 << run) - 1) << run, 2 * run
        while width < 1 << bits:
            column |= column << width
            width *= 2
        out.append(column)
    return out


# column t of a smaller block is its low bits: the pattern has period 2**(t+1)
_BLOCK_COLUMNS = _state_columns(BLOCK_BITS)
_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")


def _half_table(factors):
    """(product of weights, sum of coefficients) of every up/down pattern of
    ids given as ((w_down, c_down), (w_up, c_up)); bit t of an entry's index
    is set when id t is up."""
    table = [(1, 0)]
    for (dw, dc), (uw, uc) in factors:
        table = [(w * dw, c + dc) for w, c in table] + [(w * uw, c + uc) for w, c in table]
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
    high half of the free ids, and state x's index is its low-half index
    plus its high-half index shifted past the low half.

    The states are judged in blocks of ``2**b`` consecutive indices, with
    b = min(free ids, BLOCK_BITS): one ``sf.fn`` call per block, given
    truth-table columns for the block's b ids and constant ones (all states
    or none) for the others.  Within a block, each high-half state's run of
    up-bits selects the low-half entries to sum.

    Ids with p in {0, 1} are fixed, not enumerated: the p_i factor vanishes
    at p = 0, and a perfect component has no failure rate.  A fixed id's
    rate may be absent, and one at p = 0 is not used.  The values
    :class:`~relfreq.core.Component` rejects raise :class:`OracleError`:
    p outside [0, 1], a negative rate, and a nonzero rate at p = 1.  (The
    transfer-matrix pass is pure algebra and accepts the last.)
    """
    probs = {cid: as_exact(probs[cid]) for cid in sf.ids}
    # p = pn/pd in lowest terms, pd > 0, is compared by its integers: it is
    # 0 or 1 when pn is 0 or pd
    fixed = {cid for cid, p in probs.items() if p.numerator in (0, p.denominator)}
    rates = {cid: as_exact(rates.get(cid, 0) if cid in fixed else rates[cid])
             for cid in sf.ids}
    for cid, p in probs.items():
        pn, pd, ln = p.numerator, p.denominator, rates[cid].numerator
        if not 0 <= pn <= pd or ln < 0 or pn == pd and ln != 0:
            raise OracleError(f"component {cid!r}: p={p} with failure rate "
                              f"{rates[cid]}; need p in [0,1], rate >= 0, and 0 at p=1")
    free = [j for j, cid in enumerate(sf.ids) if cid not in fixed]
    m = len(free)
    if m > MAX_COMPONENTS:
        raise OracleError(f"{m} components exceed the enumeration cap of {MAX_COMPONENTS}")
    # p = pn/pd and lambda = ln/ld: the up coefficient is ln/ld, the down
    # one lambda p / q = ln pn / (ld (pd - pn))
    params = [(p.numerator, p.denominator, lam.numerator, lam.denominator)
              for p, lam in ((probs[sf.ids[j]], rates[sf.ids[j]]) for j in free)]
    scale = lcm(*(ld * (pd - pn) for pn, pd, _, ld in params))
    factors = [
        ((pd - pn, -ln * pn * (scale // (ld * (pd - pn)))), (pn, ln * (scale // ld)))
        for pn, pd, ln, ld in params
    ]
    half, bits = m // 2, min(m, BLOCK_BITS)
    low_w, low_c = zip(*_half_table(factors[:half]))
    low_wc = [w * c for w, c in zip(low_w, low_c)]
    high = _half_table(factors[half:])

    full = (1 << (1 << bits)) - 1
    cols = [full if cid in fixed and probs[cid].numerator else 0 for cid in sf.ids]
    for j, column in zip(free, _BLOCK_COLUMNS):
        cols[j] = column & full
    outer = free[bits:]
    span, per_block = 1 << half, 1 << (bits - half)
    fn, a, nu = sf.fn, 0, 0
    for block in range(1 << (m - bits)):
        for t, j in enumerate(outer):
            cols[j] = full if block >> t & 1 else 0
        up = fn(cols, full) & full
        if not up:
            continue
        # bit x of up becomes byte x of selectors, 0 or 1
        selectors = format(up, f"0{1 << bits}b").encode().translate(_ZERO_ONE)[::-1]
        for i, (w, c) in enumerate(high[block * per_block:(block + 1) * per_block]):
            chosen = selectors[i * span:(i + 1) * span]
            s_w = sum(compress(low_w, chosen))
            a += w * s_w
            nu += w * (sum(compress(low_wc, chosen)) + c * s_w)
    denom = prod(pd for _, pd, _, _ in params)
    return Fraction(a, denom), Fraction(nu, denom * scale)


def oracle_availability(sf: StructureFunction, probs: Mapping) -> Fraction:
    """Sum over up-states of the product of p_i / q_i, exact rational."""
    return oracle_solve(sf, probs, dict.fromkeys(sf.ids, 0))[0]


def oracle_frequency(sf: StructureFunction, probs: Mapping, rates: Mapping) -> Fraction:
    """sum_i lambda_i p_i dA/dp_i, exact: the second half of :func:`oracle_solve`."""
    return oracle_solve(sf, probs, rates)[1]

