"""Rational generating functions in z with coefficients polynomial in p.

Coefficients stay exact rational polynomials until evaluation, so the
``lam * p * d/dp`` operator acts exactly and identities between generating
functions can be checked as polynomial identities.  Coefficient extraction
runs the linear recurrence induced by the denominator; cost is
O(N * deg_z(den) * polynomial degree) for N coefficients, with no automatic
truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import List, Sequence, Tuple

from .scalars import as_exact


class GenfuncError(ValueError):
    pass


class UniPoly:
    """Univariate polynomial in p over exact rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = [as_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def p(cls) -> "UniPoly":
        return cls([0, 1])

    @classmethod
    def one_minus_p(cls) -> "UniPoly":
        return cls([1, -1])

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


PolyZ = Tuple[UniPoly, ...]  # polynomial in z, coefficients polynomial in p


def _as_polyz(coeffs) -> PolyZ:
    out = [_as_unipoly(c) for c in coeffs]
    while out and out[-1].is_zero():
        out.pop()
    return tuple(out)


def polyz_mul(a: PolyZ, b: PolyZ) -> PolyZ:
    if not a or not b:
        return ()
    out = [UniPoly() for _ in range(len(a) + len(b) - 1)]
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return _as_polyz(out)


def polyz_pow(a: PolyZ, exp: int) -> PolyZ:
    out: PolyZ = (UniPoly([1]),)
    for _ in range(exp):
        out = polyz_mul(out, a)
    return out


@dataclass(frozen=True)
class RationalGF:
    """num(z)/den(z) with UniPoly coefficients; den(0) must be invertible."""

    num: PolyZ
    den: PolyZ

    def __post_init__(self):
        object.__setattr__(self, "num", _as_polyz(self.num))
        object.__setattr__(self, "den", _as_polyz(self.den))
        if not self.den or self.den[0].is_zero():
            raise GenfuncError("denominator has zero constant term")
        if self.den[0].degree > 0:
            raise GenfuncError(
                "denominator constant term must be a nonzero constant in p"
            )


def gf_kofn_g(k: int) -> RationalGF:
    """Generating function of A_{k,n} over n: p^k z^k / ((1-z)(1-(1-p)z)^k).

    k = 0 is the trivially-available family, 1/(1-z)."""
    if k < 0:
        raise GenfuncError("k must be nonnegative")
    p = UniPoly.p()
    q = UniPoly.one_minus_p()
    num = (UniPoly(),) * k + (p**k,)
    den = polyz_mul((UniPoly([1]), UniPoly([-1])), polyz_pow((UniPoly([1]), -q), k))
    return RationalGF(num=_as_polyz(num), den=den)


def gf_kofn_g_freq(k: int, lam=1) -> RationalGF:
    """Generating function of the failure frequency of k-out-of-n:G systems
    with identical components: lam k p^k z^k / (1-(1-p)z)^(k+1)."""
    if k < 1:
        raise GenfuncError("k must be positive")
    lam = as_exact(lam)
    p = UniPoly.p()
    q = UniPoly.one_minus_p()
    num = (UniPoly(),) * k + (p**k * (lam * k),)
    den = polyz_pow((UniPoly([1]), -q), k + 1)
    return RationalGF(num=_as_polyz(num), den=den)


def gf_lincon_f(k: int) -> RationalGF:
    """Generating function of consecutive-k availability over n:
    (1 - (1-p)^k z^k) / (1 - z + p (1-p)^k z^(k+1))."""
    if k < 1:
        raise GenfuncError("k must be positive")
    p = UniPoly.p()
    qk = UniPoly.one_minus_p() ** k
    num = (UniPoly([1]),) + (UniPoly(),) * (k - 1) + (-qk,)
    den = (UniPoly([1]), UniPoly([-1])) + (UniPoly(),) * (k - 1) + (p * qk,)
    return RationalGF(num=_as_polyz(num), den=_as_polyz(den))


def series_coeffs(gf: RationalGF, n_max: int) -> List[UniPoly]:
    """Coefficients of z^0 .. z^n_max via the denominator's recurrence."""
    if n_max < 0:
        raise GenfuncError("n_max must be nonnegative")
    d0 = gf.den[0].coeffs[0]
    inv = 1 / d0
    out: List[UniPoly] = []
    for n in range(n_max + 1):
        acc = gf.num[n] if n < len(gf.num) else UniPoly()
        for j in range(1, min(n, len(gf.den) - 1) + 1):
            acc = acc - gf.den[j] * out[n - j]
        out.append(acc * inv)
    return out


def _op_polyz(coeffs: PolyZ, lam: Fraction) -> PolyZ:
    return _as_polyz([c.p_dp() * lam for c in coeffs])


def series_operator(obj, lam=1):
    """Apply lam * p * d/dp termwise; accepts a RationalGF or a coefficient
    list and returns the same shape."""
    lam = as_exact(lam)
    if isinstance(obj, RationalGF):
        num = _as_polyz(
            [
                a + b
                for a, b in _zip_pad(
                    polyz_mul(_op_polyz(obj.num, lam), obj.den),
                    [-c for c in polyz_mul(obj.num, _op_polyz(obj.den, lam))],
                )
            ]
        )
        return RationalGF(num=num, den=polyz_mul(obj.den, obj.den))
    return [_as_unipoly(c).p_dp() * lam for c in obj]


def _zip_pad(a, b):
    n = max(len(a), len(b))
    za = list(a) + [UniPoly()] * (n - len(a))
    zb = list(b) + [UniPoly()] * (n - len(b))
    return zip(za, zb)


def gf_equal(a: RationalGF, b: RationalGF) -> bool:
    """Equality as rational functions, by cross-multiplication."""
    return polyz_mul(a.num, b.den) == polyz_mul(b.num, a.den)


def kofn_availability(k: int, n: int, p) -> Fraction:
    """A_{k,n} for identical components, with the A_{0,n} = 1 convention."""
    if k < 0 or n < 0:
        raise GenfuncError("k and n must be nonnegative")
    p = as_exact(p)
    if k == 0:
        return Fraction(1)
    q = 1 - p
    return sum((comb(n, l) * p**l * q ** (n - l) for l in range(k, n + 1)), Fraction(0))


def kofn_recurrence_check(k: int, n: int, p) -> bool:
    """A_{k,n+1} = (1-p) A_{k,n} + p A_{k-1,n}, on exact values."""
    if not (1 <= k <= n):
        raise GenfuncError(f"need 1 <= k <= n, got k={k}, n={n}")
    p = as_exact(p)
    lhs = kofn_availability(k, n + 1, p)
    rhs = (1 - p) * kofn_availability(k, n, p) + p * kofn_availability(k - 1, n, p)
    return lhs == rhs
