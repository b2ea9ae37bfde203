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
from functools import lru_cache
from math import comb
from typing import Tuple

from .core import Component, Layout, MatrixPair, ReliabilityError, TransferSystem
from .scalars import as_exact


@dataclass(frozen=True)
class KofnSpec:
    k: int
    components: Tuple[Component, ...]

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


def _build(spec: KofnSpec, family: str, offset=0, sign=1) -> TransferSystem:
    """The system of one k x k pair per component, each binding its id to
    the family's layout."""
    k = spec.k
    layout = _layout(family, k)
    return TransferSystem(
        v_left=(Fraction(1),) + (Fraction(0),) * (k - 1),
        pairs=tuple(MatrixPair(layout, (c.id,)) for c in spec.components),
        v_right=(Fraction(1),) * k,
        offset=offset,
        sign=sign,
        components=spec.components,
        family=f"{family}:{k}/{spec.n}",
    )


def build_kofn_g(spec: KofnSpec) -> TransferSystem:
    """Transfer system for a k-out-of-n:G system with distinct components.

    The availability is reported through the affine form (1, -1): the matrix
    product accumulates the probability that fewer than k components work.
    The derivative matrices carry the minus signs automatically, so no
    post-hoc sign fixing is ever applied.
    """
    return _build(spec, "kofn-g", offset=1, sign=-1)


def build_lincon_f(spec: KofnSpec) -> TransferSystem:
    """Transfer system for a linear consecutive k-out-of-n:F system.

    The system fails iff at least k consecutive components are down; the
    component list order is the line order, with component 1 applied first.
    """
    return _build(spec, "lincon-f")


def kofn_availability(k: int, n: int, p) -> Fraction:
    """A_{k,n} for identical components, with the A_{0,n} = 1 convention."""
    if k < 0 or n < 0:
        raise ReliabilityError("k and n must be nonnegative")
    p = as_exact(p)
    if k == 0:
        return Fraction(1)
    q = 1 - p
    return sum((comb(n, l) * p**l * q ** (n - l) for l in range(k, n + 1)), Fraction(0))


def kofn_g_identical(k: int, n: int, p, lam) -> Tuple[Fraction, Fraction]:
    """Exact closed-form (A, nu) for identical components, in absolute units.

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
    return a, nu


def identical_components(n: int, p, lam) -> Tuple[Component, ...]:
    """n components c1..cn sharing one availability p and failure rate lam;
    a perfect component (p = 1) gets rate 0, as it never fails."""
    lam = 0 if p == 1 else lam
    return tuple(Component(f"c{i}", p, lam) for i in range(1, n + 1))
