"""Builders for k-out-of-n:G and linear consecutive k-out-of-n:F systems.

Both families reduce to k x k transfer matrices, one matrix per component;
a family's matrices share one layout, written over one variable, and each
binds it to its component's id.
Component 1 sits adjacent to the right boundary vector; for the consecutive
family the list order is the physical line order, so adjacency is encoded by
position.  Identical components are one component object repeated, as the
ladder's identical cells are one cell object: :func:`identical_kofn_spec`
builds n of them as one run, so a pass costs O(log n) steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import Component, Layout, MatrixPair, ReliabilityError, Runs, TransferSystem, read_field


@dataclass(frozen=True)
class KofnSpec:
    """k and the components in line order.  ``components`` is stored as
    :class:`Runs`, as a ladder's cells are: any sequence of components is
    accepted, and one given as a ``Runs`` is kept unexpanded.  Each position
    is one independent component, so a run of one component object is that
    many identical components; two different objects may not share an id."""

    k: int
    components: Runs

    def __post_init__(self):
        object.__setattr__(self, "k", read_field("k", self.k, integer=True))
        object.__setattr__(self, "components", Runs(self.components))
        n = self.components.length
        if n < 1:
            raise ReliabilityError("need at least one component")
        if not (1 <= self.k <= n):
            raise ReliabilityError(f"k={self.k} out of range for n={n}")
        first = {}  # id -> the one component object that it names
        for c, _ in self.components.runs:
            if first.setdefault(c.id, c) is not c:
                raise ReliabilityError("component ids must be distinct")

    @property
    def n(self) -> int:
        return self.components.length


def identical_kofn_spec(k: int, n: int, p, lam) -> KofnSpec:
    """k of n identical components: one component "c" run n times, as
    :func:`~relfreq.ladder.identical_ladder_spec` runs one interior cell.
    p, lam and n are read by :func:`~relfreq.core.read_field`, as
    :class:`~relfreq.ladder.LadderIdenticalParams` reads its values.
    A perfect component (p = 1) gets rate 0, as it never fails."""
    p, lam, n = read_field("p", p), read_field("lam", lam), read_field("n", n, integer=True)
    return KofnSpec(k, Runs.from_runs([(Component("c", p, 0 if p == 1 else lam), n)]))


# q_i = 1 - p_i and p_i over a pair's one variable, bound to component i
_Q = {(): 1, (0,): -1}
_P = {(0,): 1}
# each family's slot 0 column in row r and its two slots' polynomials:
# k-of-n:G has q_i on the diagonal and p_i on the superdiagonal, lincon-F
# p_i down the first column and q_i on the superdiagonal
_FAMILIES = {
    "kofn-g": (lambda r: r, (_Q, _P)),
    "lincon-f": (lambda r: 0, (_P, _Q)),
}


@lru_cache(maxsize=256)
def _layout(family: str, k: int) -> Layout:
    """The one k x k layout of ``family``, shared by all its systems: row r
    holds slot 0 at the family's column and, for r < k - 1, slot 1 on the
    superdiagonal; k = 1 has slot 0 only."""
    col, polys = _FAMILIES[family]
    rows = [((col(r), 0), (r + 1, 1)) for r in range(k - 1)] + [((col(k - 1), 0),)]
    return Layout(k, rows, polys[:min(k, 2)])


def _build(spec: KofnSpec, family: str, offset=0, lead=1) -> TransferSystem:
    """The system of one k x k pair per component object, binding its id to
    the family's layout: each run of components becomes a run of its pair,
    and the system keeps the distinct components.  vL is (lead, 0, ..., 0)."""
    k = spec.k
    layout = _layout(family, k)
    components = {c.id: c for c, _ in spec.components.runs}
    pairs = {cid: MatrixPair(layout, (cid,)) for cid in components}
    return TransferSystem(
        v_left=(Fraction(lead),) + (Fraction(0),) * (k - 1),
        pairs=Runs.from_runs((pairs[c.id], r) for c, r in spec.components.runs),
        v_right=(Fraction(1),) * k,
        offset=offset,
        components=tuple(components.values()),
        family=f"{family}:{k}/{spec.n}",
    )


def build_kofn_g(spec: KofnSpec) -> TransferSystem:
    """Transfer system for a k-out-of-n:G system.

    The matrix product accumulates the probability that fewer than k
    components work, so the availability is 1 minus it: offset 1 and
    vL = (-1, 0, ..., 0).  The derivative matrices carry the minus signs
    automatically, so no post-hoc sign fixing is ever applied.
    """
    return _build(spec, "kofn-g", offset=1, lead=-1)


def build_lincon_f(spec: KofnSpec) -> TransferSystem:
    """Transfer system for a linear consecutive k-out-of-n:F system.

    The system fails iff at least k consecutive components are down; the
    component list order is the line order, with component 1 applied first.
    """
    return _build(spec, "lincon-f")
