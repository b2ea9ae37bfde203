"""Scalar handling shared by the exact and approximate computation modes.

A computation runs entirely in one mode, chosen at call time:

* ``"exact"``  -- unbounded-precision rationals (``fractions.Fraction``),
* ``"approx"`` -- plain double-precision floats.

``Fraction`` keeps rationals in lowest terms with a positive denominator,
which is exactly the normal form we need for bit-exact report strings.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, float]

EXACT = "exact"
APPROX = "approx"
MODES = (EXACT, APPROX)


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    return mode


def as_exact(x) -> Fraction:
    """Coerce to an exact rational. Strings like '3/4' or '0.93' parse exactly."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def convert(x, mode: str) -> Scalar:
    return as_exact(x) if mode == EXACT else float(x)


def parse_scalar(text: str) -> Fraction:
    """Parse a decimal or 'num/den' string into an exact rational, as
    ``Fraction(text.strip())`` reads it."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse scalar {text!r}: {exc}") from exc


# 2000 bits is at most 603 decimal digits, below the smallest nonzero value
# sys.set_int_max_str_digits accepts (640), so str() of an int this short
# never hits the interpreter-wide limit, whatever it is set to.
_STR_SAFE_BITS = 2000


def _int_str(n: int) -> str:
    """Decimal digits of any int without raising the int-to-str digit limit.

    Longer ints are split by ``divmod`` with a power of ten near half their
    length and the halves written recursively.
    """
    if n < 0:
        return "-" + _int_str(-n)
    if n.bit_length() <= _STR_SAFE_BITS:
        return str(n)
    half = n.bit_length() * 3 // 20  # about half the decimal digits
    high, low = divmod(n, 10**half)
    return _int_str(high) + _int_str(low).zfill(half)


def rational_str(x: Fraction) -> str:
    """Lowest-terms 'num/den' string (plain integer when the denominator is 1).

    Exact for any size.  Reading a string longer than 4300 digits back with
    ``Fraction(text)`` or ``int(text)`` needs ``sys.set_int_max_str_digits``.
    """
    x = as_exact(x)
    num = _int_str(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_int_str(x.denominator)}"
