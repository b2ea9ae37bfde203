"""Builders for k-out-of-n:G and linear consecutive k-out-of-n:F systems.

Both families reduce to k x k transfer matrices, one matrix per component;
a family's matrices share one layout, written over one variable, and each
binds it to its component's id.
Component 1 sits adjacent to the right boundary vector; for the consecutive
family the list order is the physical line order, so adjacency is encoded by
position.  Closed forms for identical components are provided alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Tuple

from .core import (
    Component,
    Layout,
    MatrixPair,
    ReliabilityError,
    ReliabilityReport,
    TransferSystem,
    log10_of,
)
from .genfunc import kofn_availability
from .scalars import EXACT, as_exact


@dataclass(frozen=True)
class KofnSpec:
    k: int
    components: Tuple[Component, ...]
    rate_unit: str = "absolute"

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        n = len(self.components)
        if n < 1:
            raise ReliabilityError("need at least one component")
        if not (1 <= self.k <= n):
            raise ReliabilityError(f"k={self.k} out of range for n={n}")
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            raise ReliabilityError("component ids must be distinct")

    @property
    def n(self) -> int:
        return len(self.components)


# q_i = 1 - p_i and p_i over a pair's one variable, bound to component i
_Q = {(): 1, (0,): -1}
_P = {(0,): 1}


def _build(spec: KofnSpec, col, polys, family: str, offset=0, sign=1) -> TransferSystem:
    """The system of one k x k pair per component, each binding its id to
    one layout whose row r holds slot 0 at column ``col(r)`` and, for
    r < k - 1, slot 1 on the superdiagonal; ``polys`` are the two slots'
    polynomials, and k = 1 has slot 0 only."""
    k = spec.k
    rows = [((col(r), 0), (r + 1, 1)) for r in range(k - 1)] + [((col(k - 1), 0),)]
    layout = Layout(k, rows, polys[:min(k, 2)])
    return TransferSystem(
        v_left=(Fraction(1),) + (Fraction(0),) * (k - 1),
        pairs=tuple(MatrixPair(layout, (c.id,)) for c in spec.components),
        v_right=(Fraction(1),) * k,
        offset=offset,
        sign=sign,
        components=spec.components,
        rate_unit=spec.rate_unit,
        family=f"{family}:{k}/{spec.n}",
    )


def build_kofn_g(spec: KofnSpec) -> TransferSystem:
    """Transfer system for a k-out-of-n:G system with distinct components.

    The availability is reported through the affine form (1, -1): the matrix
    product accumulates the probability that fewer than k components work.
    The derivative matrices carry the minus signs automatically, so no
    post-hoc sign fixing is ever applied.
    """
    # q_i on the diagonal (slot 0), p_i on the superdiagonal (slot 1)
    return _build(spec, lambda r: r, (_Q, _P), "kofn-g", offset=1, sign=-1)


def build_lincon_f(spec: KofnSpec) -> TransferSystem:
    """Transfer system for a linear consecutive k-out-of-n:F system.

    The system fails iff at least k consecutive components are down; the
    component list order is the line order, with component 1 applied first.
    """
    # p_i down the first column (slot 0), q_i on the superdiagonal (slot 1)
    return _build(spec, lambda r: 0, (_P, _Q), "lincon-f")


def kofn_g_identical(k: int, n: int, p, lam) -> ReliabilityReport:
    """Exact closed-form report for identical components, in absolute units.

    The frequency is lam * k * C(n,k) * p^k * (1-p)^(n-k); the binomial index
    is k (verified against the generating-function expansion and the
    transfer-matrix pass, see the genfunc tests).  At p = 1 the components
    never fail, so lam is taken as 0, as :func:`identical_components` does;
    a negative lam is rejected.
    """
    if not (1 <= k <= n):
        raise ReliabilityError(f"k={k} out of range for n={n}")
    p = as_exact(p)
    if not (0 <= p <= 1):
        raise ReliabilityError(f"p={p} outside [0,1]")
    lam = as_exact(lam)
    if lam < 0:
        raise ReliabilityError(f"negative failure rate {lam}")
    if p == 1:
        lam = Fraction(0)  # a perfect component never fails, as in identical_components
    a = kofn_availability(k, n, p)
    nu = lam * k * comb(n, k) * p**k * (1 - p) ** (n - k)
    return ReliabilityReport(
        availability=a,
        unavailability=1 - a,
        frequency=nu,
        failure_rate=nu / a if a != 0 else None,
        mode=EXACT,
        family=f"kofn-g:{k}/{n}",
        size=n,
        log10_availability=log10_of(a),
        log10_frequency=log10_of(nu),
    )


def identical_components(n: int, p, lam) -> Tuple[Component, ...]:
    """n components c1..cn sharing one availability p and failure rate lam;
    a perfect component (p = 1) gets rate 0, as it never fails."""
    lam = 0 if p == 1 else lam
    return tuple(Component(f"c{i}", p, lam) for i in range(1, n + 1))
