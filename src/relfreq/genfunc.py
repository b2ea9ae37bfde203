"""Rational generating functions in z with coefficients polynomial in p.

A generating function's numerator and denominator are each one
:class:`UniPoly` in z whose coefficients are UniPolys in p, so both levels
share one polynomial type.  Coefficients stay exact rational polynomials
until evaluation, so the ``lam * p * d/dp`` operator acts exactly and
identities between generating functions can be checked as polynomial
identities.  :func:`transfer_gf` derives a system's generating function
from the matrix its builder wrote, so no family's is written twice here.
Coefficient extraction runs the linear recurrence induced by
the denominator; cost is O(N * deg_z(den) * polynomial degree) for N
coefficients, with no automatic truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import List, Sequence

from .scalars import as_exact


class GenfuncError(ValueError):
    pass


class UniPoly:
    """Univariate polynomial over exact rationals or over UniPolys.

    Here a polynomial in p has rational coefficients, and a polynomial in z
    has polynomials in p as coefficients.  A product or sum of the two
    levels would read p's coefficients as z's, so a p-polynomial enters a
    z-polynomial only as a coefficient (see :func:`_z`)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = [c if isinstance(c, UniPoly) else as_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        other = _as_unipoly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_unipoly(other))

    def __rsub__(self, other):
        return _as_unipoly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs])
        other = _as_unipoly(other)
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise GenfuncError("negative powers not supported")
        out = UniPoly([1])
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, (UniPoly, int, Fraction)):
            return NotImplemented
        return self.coeffs == _as_unipoly(other).coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"

    def p_dp(self) -> "UniPoly":
        """p * d/dp, the identical-component rate operator without lam."""
        return UniPoly([i * c for i, c in enumerate(self.coeffs)])

    def __call__(self, p) -> Fraction:
        p = as_exact(p)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc


def _as_unipoly(x) -> UniPoly:
    if isinstance(x, UniPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return UniPoly([x])
    raise TypeError(f"cannot interpret {x!r} as a polynomial in p")


def _z(coeffs) -> UniPoly:
    """The polynomial in z whose coefficients, lowest power first, are the
    polynomials in p (or rationals) ``coeffs``."""
    return UniPoly([_as_unipoly(c) for c in coeffs])


@dataclass(frozen=True)
class RationalGF:
    """num(z)/den(z), each a UniPoly in z over UniPolys in p (or given as the
    sequence of its p-polynomial coefficients); den(0) must be invertible."""

    num: UniPoly
    den: UniPoly

    def __post_init__(self):
        for name in ("num", "den"):
            f = getattr(self, name)
            object.__setattr__(self, name, _z(f.coeffs if isinstance(f, UniPoly) else f))
        if self.den.is_zero() or self.den.coeffs[0].is_zero():
            raise GenfuncError("denominator has zero constant term")
        if self.den.coeffs[0].degree > 0:
            raise GenfuncError(
                "denominator constant term must be a nonzero constant in p"
            )


def _matrix(pair, values) -> List[List[UniPoly]]:
    """M of ``pair`` as rows of polynomials in p, built from its layout with
    each bound id read as ``values[id]``."""
    xs = [_as_unipoly(values[cid]) for cid in pair.ids]
    slots = [sum((prod((xs[j] for j in vs), start=UniPoly([c])) for vs, c in terms), UniPoly())
             for terms in pair.layout.polys]
    return [[slots[row[col]] if col in row else UniPoly() for col in range(pair.dim)]
            for row in map(dict, pair.layout.rows)]


def _det(rows) -> UniPoly:
    """Determinant of a square matrix of polynomials in z, expanded along
    the first row past its zero entries: only +, - and * are used."""
    if not rows:
        return _z([1])
    return sum(((-1) ** j * entry * _det([row[:j] + row[j + 1:] for row in rows[1:]])
                for j, entry in enumerate(rows[0]) if not entry.is_zero()), UniPoly())


def transfer_gf(system, values) -> RationalGF:
    """sum_n A_n z^n, A_n being the availability of ``system`` with its last
    run's pair M applied n times after its earlier runs and each component
    id read as the polynomial in p ``values[id]``.

    With w = vR pushed through the earlier runs and B = I - zM, the series
    is offset/(1 - z) + vL adj(B) w / det B, where vL adj(B) w =
    det(B + w vL^T) - det B by the matrix determinant lemma.  A family's
    matrix is read from its pairs' layouts, the one place it is written."""
    if not system.pairs:
        raise GenfuncError("the system has no pair to repeat")
    *earlier, (last, _) = system.pairs.runs
    w = [_as_unipoly(x) for x in system.v_right]
    for pair, r in earlier:
        m = _matrix(pair, values)
        for _ in range(r):
            w = [sum((e * x for e, x in zip(row, w)), UniPoly()) for row in m]
    b = [[_z([int(i == j), -e]) for j, e in enumerate(row)]
         for i, row in enumerate(_matrix(last, values))]
    det_b = _det(b)
    num = _det([[e + _z([w[i] * v]) for e, v in zip(row, system.v_left)]
                for i, row in enumerate(b)]) - det_b
    if not system.offset:
        return RationalGF(num, det_b)
    return RationalGF(num * _z([1, -1]) + det_b * system.offset, det_b * _z([1, -1]))


def series_coeffs(gf: RationalGF, n_max: int) -> List[UniPoly]:
    """Coefficients of z^0 .. z^n_max via the denominator's recurrence."""
    if n_max < 0:
        raise GenfuncError("n_max must be nonnegative")
    num, den = gf.num.coeffs, gf.den.coeffs
    inv = 1 / den[0].coeffs[0]
    out: List[UniPoly] = []
    for n in range(n_max + 1):
        acc = num[n] if n < len(num) else UniPoly()
        for j in range(1, min(n, len(den) - 1) + 1):
            acc = acc - den[j] * out[n - j]
        out.append(acc * inv)
    return out


def series_operator(obj, lam=1):
    """Apply lam * p * d/dp termwise; accepts a RationalGF or a coefficient
    list and returns the same shape."""
    lam = as_exact(lam)
    if not isinstance(obj, RationalGF):
        return [_as_unipoly(c).p_dp() * lam for c in obj]
    num, den = obj.num, obj.den
    d_num, d_den = (_z(series_operator(f.coeffs, lam)) for f in (num, den))
    return RationalGF(num=d_num * den - num * d_den, den=den * den)


def gf_equal(a: RationalGF, b: RationalGF) -> bool:
    """Equality as rational functions, by cross-multiplication."""
    return a.num * b.den == b.num * a.den
