"""Transfer-matrix engine: multilinear polynomials, the rate operator, and
the single-pass availability/frequency recursion.

A system is described by ``A = offset + sign * (vL . M_n ... M_1 . vR)``
where each matrix entry is a multilinear polynomial in component
availabilities.  The mean failure frequency comes from applying the linear
differential operator ``sum_i lambda_i p_i d/dp_i`` to A, which at the
matrix level means threading the pair (M_k, M'_k) through one ordered pass:

    A_k = M_k A_{k-1}
    V_k = M_k V_{k-1} + M'_k A_{k-1}

A family applies one matrix function to every component's values, so a
:class:`Layout` holds that function once: its ``(col, slot)`` positions
row by row and one polynomial per slot over local variables 0..v-1.  A
:class:`MatrixPair` binds a layout to the component ids of its variables,
so a pair stores no polynomial; a binding that names one component twice
is rewritten over its distinct ids, so that p_i p_i = p_i.  M' is not
stored, since it follows from M and the rates.

One fold runs every pass: :func:`single_pass` folds all of a system's
pairs, :func:`stream_step` folds one.  With eps^2 = 0, a step of the
recursion is the dual product (A + eps V) <- (M + eps M')(A + eps V), and
a term c prod p_i of an entry of M evaluated at p_i (1 + eps lambda_i) is
its value plus eps times its rate-operator image.  Within a call the fold
compiles each distinct pair once into a numeric :class:`Step`, rows of
dual entries ``(col, x, y)``: one walk over the terms of each slot's
polynomial, by variable index, gives both x and y, and the layout places
them.
A run of r references to one pair is the dual power (M + eps M')^r, taken
by squaring: O(log r) steps.  Steps and states store value * scale *
2**-exponent: exact mode integers over a common denominator, approx mode
floats over scale 1 with a binary exponent against underflow.
:func:`initial_state` puts vR over its lcm, the fold multiplies the
state's scale by each step's, and :func:`finalize` divides vL.A and vL.V
by it, once each.  Each p, lambda and coefficient the exact compile reads
is an integer over a common denominator too, so no Fraction is made in
between.

A system stores its pairs as :class:`Runs`, (pair, r) runs that are never
expanded, so building, checking and folding a system cost O(runs + sum of
log r).  Memory use is O(runs + vector dimension) plus O(dim^2 log r) for
the powers of a run, independent of the number of matrices.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, groupby, repeat
from math import frexp, gcd, lcm, ldexp, log10
from operator import countOf, index as to_index, mul, truediv
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Tuple

from .scalars import EXACT, Scalar, as_exact, check_mode, convert, rational_str


class ReliabilityError(ValueError):
    """Base class for engine errors."""


class DimensionMismatchError(ReliabilityError):
    pass


class MissingRateError(ReliabilityError):
    def __init__(self, component_id):
        super().__init__(f"no failure rate supplied for component {component_id!r}")
        self.component_id = component_id


class MissingAvailabilityError(ReliabilityError):
    def __init__(self, component_id):
        super().__init__(f"no availability supplied for component {component_id!r}")
        self.component_id = component_id


# ---------------------------------------------------------------------------
# Components


@dataclass(frozen=True)
class Component:
    """One repairable element.

    ``lam`` and ``mu`` are failure and repair rates per unit time; when the
    rates are expressed as multiples of a single reference repair rate, the
    stored values are the multipliers and the surrounding report is tagged
    ``rate_unit="mu"``.
    """

    id: str
    p: Fraction
    lam: Fraction = Fraction(0)
    mu: Optional[Fraction] = None

    def __post_init__(self):
        p, lam = as_exact(self.p), as_exact(self.lam)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "lam", lam)
        if self.mu is not None:
            object.__setattr__(self, "mu", as_exact(self.mu))
        # a Fraction's denominator is positive: compare integers, not Fractions
        if not 0 <= p.numerator <= p.denominator:
            raise ReliabilityError(f"component {self.id!r}: p={p} outside [0,1]")
        if lam.numerator < 0:
            raise ReliabilityError(f"component {self.id!r}: negative failure rate")
        if self.mu is not None and self.mu.numerator < 0:
            raise ReliabilityError(f"component {self.id!r}: negative repair rate")
        if p.numerator == p.denominator and lam.numerator:
            raise ReliabilityError(
                f"component {self.id!r}: a perfect component must have zero failure rate"
            )

    @classmethod
    def steady_state(cls, id: str, p, mu=1) -> "Component":
        """Component whose failure rate satisfies lam * p = mu * (1 - p)."""
        p = as_exact(p)
        mu = as_exact(mu)
        if p == 0:
            raise ReliabilityError(f"component {id!r}: p=0 has no steady-state rate")
        lam = mu * (1 - p) / p
        return cls(id=id, p=p, lam=lam, mu=mu)


# ---------------------------------------------------------------------------
# Multilinear polynomials


def _norm_terms(terms) -> Tuple[Tuple[Tuple, Fraction], ...]:
    """(sorted key tuple, nonzero coefficient) pairs in a canonical order,
    from a ``{ids: coeff}`` map or its items; keys naming the same set of
    ids (or layout variables) are summed, also when items repeat a key."""
    out = {}
    for ids, coeff in terms.items() if isinstance(terms, Mapping) else terms:
        key = tuple(sorted(set(ids)))
        out[key] = out.get(key, 0) + as_exact(coeff)
    return tuple(sorted(((ids, c) for ids, c in out.items() if c != 0),
                        key=lambda kv: (len(kv[0]), kv[0])))


class MultilinearPoly:
    """Multilinear polynomial over component availabilities.

    Terms map a sorted tuple of component ids to a rational coefficient;
    the empty tuple is the constant term.  The constructor accepts any
    iterable of ids as a key.  No id ever appears squared: products of terms
    sharing an id are idempotent (p_i * p_i = p_i), which is the right
    semantics for expectations of Boolean indicators.  Because the ids are
    sorted, :meth:`evaluate` multiplies a term's factors in one fixed order,
    so float results do not depend on the interpreter's hash seed.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping = ()):
        self._terms = _norm_terms(terms)

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    @classmethod
    def zero(cls) -> "MultilinearPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultilinearPoly":
        return cls({(): Fraction(1)})

    @classmethod
    def constant(cls, c) -> "MultilinearPoly":
        return cls({(): as_exact(c)})

    @classmethod
    def variable(cls, component_id: str) -> "MultilinearPoly":
        return cls({(component_id,): Fraction(1)})

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        other = _as_poly(other)
        acc = dict(self._terms)
        for ids, c in other._terms:
            acc[ids] = acc.get(ids, Fraction(0)) + c
        return MultilinearPoly(acc)

    __radd__ = __add__

    def __neg__(self):
        return MultilinearPoly({ids: -c for ids, c in self._terms})

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultilinearPoly({ids: c * other for ids, c in self._terms})
        other = _as_poly(other)
        acc = {}
        for ids1, c1 in self._terms:
            for ids2, c2 in other._terms:
                key = ids1 + ids2  # the constructor sorts it into the union
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return MultilinearPoly(acc)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __repr__(self):
        if not self._terms:
            return "MultilinearPoly(0)"
        bits = []
        for ids, c in self._terms:
            mono = "*".join(sorted(ids)) if ids else "1"
            bits.append(f"{c}*{mono}")
        return "MultilinearPoly(" + " + ".join(bits) + ")"

    def evaluate(self, assignment: Mapping[str, Scalar], mode: str = EXACT) -> Scalar:
        """Evaluate at an availability assignment, entirely in one mode."""
        check_mode(mode)
        total = Fraction(0) if mode == EXACT else 0.0
        for ids, coeff in self._terms:
            term = as_exact(coeff) if mode == EXACT else float(coeff)
            for cid in ids:
                try:
                    v = assignment[cid]
                except KeyError:
                    raise MissingAvailabilityError(cid) from None
                term = term * (as_exact(v) if mode == EXACT else float(v))
            total += term
        return total


def _as_poly(x) -> MultilinearPoly:
    if isinstance(x, MultilinearPoly):
        return x
    if isinstance(x, Mapping):
        return MultilinearPoly(x)
    if isinstance(x, (int, Fraction)):
        return MultilinearPoly.constant(x)
    raise TypeError(f"cannot interpret {x!r} as a multilinear polynomial")


def apply_rate_operator(
    poly: MultilinearPoly, rates: Mapping[str, Scalar]
) -> MultilinearPoly:
    """Apply ``sum_i lambda_i p_i d/dp_i`` to a multilinear polynomial.

    A term c * prod_{i in S} p_i maps to (sum_{i in S} lambda_i) * c *
    prod_{i in S} p_i, so the image lives on the same monomials.  Constants
    are annihilated.  The pass gets the image's value from :func:`_dual`
    without building it; this operator is the reference it is tested against.
    """
    acc = {}
    for ids, coeff in poly._terms:
        if not ids:
            continue
        lam_total = Fraction(0)
        for cid in ids:
            if cid not in rates:
                raise MissingRateError(cid)
            lam_total += as_exact(rates[cid])
        if lam_total != 0:
            acc[ids] = coeff * lam_total
    return MultilinearPoly(acc)


# ---------------------------------------------------------------------------
# Matrices and systems

class Entry(NamedTuple):
    """One matrix entry: the polynomial at (row, col)."""

    row: int
    col: int
    poly: MultilinearPoly

    def is_zero(self) -> bool:
        """So that rows of entries read like rows of polynomials."""
        return self.poly.is_zero()


@dataclass(frozen=True)
class Layout:
    """One matrix function of a family, written once over local variables,
    so that every pair of one family and k shares it.

    ``rows`` holds, row by row, ``(col, slot)`` for each nonzero position in
    strictly increasing column order; positions that hold one polynomial
    share a slot.  ``polys`` holds each slot's polynomial over the variables
    0..v-1, as a ``{(j, ...): coeff}`` map or its items, with the semantics
    of :class:`MultilinearPoly` terms; it is stored normalised, and
    ``variables`` is v.  A :class:`MatrixPair` binds each variable to a
    component id.

    The constructor is the one check of a layout: it rejects the wrong
    number of rows, a column out of range, out of order or repeated, a slot
    out of range or unused, a zero polynomial and a variable that no term
    reads.  It also derives, once for every pair, what a compile reads:
    each slot's terms as (coefficient, variable indices), with the
    coefficients as integers over their lcm ``coeff_scale`` and as floats,
    and ``degree``, the most variables in a term.
    """

    dim: int
    rows: Tuple[Tuple[Tuple[int, int], ...], ...]
    polys: Tuple[Tuple[Tuple[Tuple[int, ...], Fraction], ...], ...]
    variables: int = field(init=False, compare=False)
    degree: int = field(init=False, repr=False, compare=False)
    coeff_scale: int = field(init=False, repr=False, compare=False)
    int_terms: tuple = field(init=False, repr=False, compare=False)
    float_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple((col, slot) for col, slot in row) for row in self.rows)
        polys = tuple(map(_norm_terms, self.polys))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "polys", polys)
        if self.dim < 1:
            raise DimensionMismatchError("empty matrix")
        if len(rows) != self.dim:
            raise DimensionMismatchError(f"{len(rows)} rows given for a {self.dim}x{self.dim} matrix")
        used = set()
        for r, row in enumerate(rows):
            last = -1
            for col, slot in row:
                if not last < col < self.dim or not 0 <= slot < len(polys):
                    raise ReliabilityError(f"position ({col}, slot {slot}) out of place in row {r}")
                used.add(slot)
                last = col
        if len(used) != len(polys):
            raise ReliabilityError(f"{len(polys) - len(used)} of {len(polys)} slots are unused")
        if not all(polys):
            raise ReliabilityError("each slot needs a nonzero polynomial")
        read = {j for poly in polys for vs, _ in poly for j in vs}
        if read != set(range(len(read))):
            unread = min(set(range(len(read))) - read)
            raise ReliabilityError(f"variable {unread} of a {len(read)}-variable layout is read by no term")
        num, scale = _scaler([c for poly in polys for _, c in poly], EXACT)
        object.__setattr__(self, "variables", len(read))
        object.__setattr__(self, "degree", max((len(vs) for poly in polys for vs, _ in poly), default=0))
        object.__setattr__(self, "coeff_scale", scale)
        object.__setattr__(self, "int_terms", tuple(tuple((num(c), vs) for vs, c in poly) for poly in polys))
        object.__setattr__(self, "float_terms", tuple(tuple((float(c), vs) for vs, c in poly) for poly in polys))


def _bound_poly(terms, ids) -> MultilinearPoly:
    """A layout polynomial's ``terms`` with variable j read as ``ids[j]``."""
    return MultilinearPoly([(tuple(ids[j] for j in vs), c) for vs, c in terms])


@dataclass(frozen=True)
class MatrixPair:
    """A square transfer matrix M: a :class:`Layout` bound to components,
    ``ids[j]`` being the component id of the layout's variable j.  Its
    rate-operator image M' is derived in the pass from the assignment's
    rates.

    Pairs of one family and k share one layout object and differ only in
    their ids: a k-out-of-n pair binds one id, a ladder cell's five.  The
    layout checked its positions and polynomials once; the constructor
    checks in O(v) that the binding has one id per variable.  Ids that name
    one component twice need p_i p_i = p_i: the constructor then rewrites
    the pair over the distinct ids through :meth:`from_entries`, so
    ``layout`` and ``ids`` become that pair's.  ``polys`` and ``m`` are
    read-only views derived from the layout and the ids.
    """

    layout: Layout
    ids: Tuple[str, ...]

    def __post_init__(self):
        layout, ids = self.layout, tuple(self.ids)
        if len(ids) != layout.variables:
            raise ReliabilityError(f"{len(ids)} ids for a layout of {layout.variables} variables")
        if len(set(ids)) != len(ids):
            polys = [_bound_poly(terms, ids) for terms in layout.polys]
            merged = MatrixPair.from_entries(layout.dim, [
                (r, col, polys[slot]) for r, row in enumerate(layout.rows) for col, slot in row
            ])
            layout, ids = merged.layout, merged.ids
            object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "ids", ids)

    @property
    def dim(self) -> int:
        return self.layout.dim

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.dim, self.dim)

    @property
    def polys(self) -> Tuple[MultilinearPoly, ...]:
        """Each slot's polynomial over the bound ids."""
        return tuple(_bound_poly(terms, self.ids) for terms in self.layout.polys)

    @property
    def m(self) -> Tuple[Tuple[Entry, ...], ...]:
        """The nonzero entries of M, as :class:`Entry` triples grouped into
        ``dim`` rows in column order."""
        polys = self.polys
        return tuple(
            tuple(Entry(r, col, polys[slot]) for col, slot in row)
            for r, row in enumerate(self.layout.rows)
        )

    @classmethod
    def from_entries(cls, dim: int, entries: Iterable) -> "MatrixPair":
        """Pair from ``(row, col, poly)`` triples in any order, a poly being
        a :class:`MultilinearPoly`, a constant or a ``{ids: coeff}`` term
        map.  Zero entries are dropped, equal polynomials share one slot,
        each row is sorted by column, and the variables are the sorted ids
        that the polynomials read; the layout's constructor then rejects a
        bad column or a position given twice.  With no entries it is the
        zero pair."""
        rows = [[] for _ in range(dim)]
        slots = {}  # polynomial -> slot, in slot order
        for r, c, poly in entries:
            if not 0 <= r < dim:
                raise DimensionMismatchError(f"entry ({r}, {c}) outside a {dim}x{dim} matrix")
            poly = _as_poly(poly)
            if not poly.is_zero():
                rows[r].append((c, slots.setdefault(poly, len(slots))))
        ids = sorted({cid for poly in slots for key, _ in poly._terms for cid in key})
        var = {cid: j for j, cid in enumerate(ids)}
        terms = [[(tuple(map(var.__getitem__, key)), c) for key, c in poly._terms] for poly in slots]
        return cls(Layout(dim, map(sorted, rows), terms), ids)


def identical_runs(items: Iterable) -> Iterator[Tuple[object, int]]:
    """(item, r) for each run of r consecutive references to one object;
    ``countOf`` counts the rest of a run in C, matching each by identity."""
    for _, run in groupby(items, key=id):
        item = next(run)
        yield item, 1 + countOf(run, item)


class Runs(Sequence):
    """An immutable sequence stored as its runs: ``runs`` holds (item, r) for
    each run of r >= 1 consecutive references to one object, and no two
    adjacent runs hold the same object.

    It reads like the tuple it stands for (length, iteration, indexing;
    a slice is a tuple), but is never expanded: a run of r references costs
    O(1) memory, so a chain of 10**12 shared cells fits.  ``Runs(items)``
    scans a plain iterable with :func:`identical_runs`; :meth:`from_runs`
    takes the runs themselves and scans nothing.
    """

    __slots__ = ("runs", "_ends")

    def __init__(self, items: Iterable = ()):
        if isinstance(items, Runs):
            self.runs, self._ends = items.runs, items._ends
        else:
            self.runs = tuple(identical_runs(items))
            self._ends = tuple(accumulate(r for _, r in self.runs))

    @classmethod
    def from_runs(cls, runs: Iterable[Tuple[object, int]]) -> "Runs":
        """The sequence of ``r`` references to each ``item`` in turn, from
        (item, r) pairs; runs of length 0 are dropped and adjacent runs of one
        object merged, so the stored runs are the maximal ones."""
        merged = []
        for item, r in runs:
            r = to_index(r)
            if r < 0:
                raise ValueError(f"run length {r} is negative")
            if r == 0:
                continue
            if merged and merged[-1][0] is item:
                r += merged.pop()[1]
            merged.append((item, r))
        out = cls.__new__(cls)
        out.runs = tuple(merged)
        out._ends = tuple(accumulate(r for _, r in merged))
        return out

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self) -> Iterator:
        return chain.from_iterable(repeat(item, r) for item, r in self.runs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        i = to_index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("Runs index out of range")
        return self.runs[bisect_right(self._ends, i)][0]

    def __eq__(self, other):
        """Equal when the runs are, so that systems built alike compare equal
        as they did with pair tuples.  Unlike a tuple, r references to one
        object differ here from r distinct but equal objects."""
        if not isinstance(other, Runs):
            return NotImplemented
        return self.runs == other.runs

    def __hash__(self):
        return hash(self.runs)

    def __repr__(self) -> str:
        return f"Runs.from_runs({list(self.runs)!r})"


@dataclass(frozen=True)
class TransferSystem:
    """Left vector, ordered matrix pairs, right vector, affine convention.

    ``pairs[0]`` is applied first (adjacent to ``v_right``).  The reported
    availability is ``offset + sign * (vL . product . vR)``; the default
    affine form is (0, +1), and the k-out-of-n:G construction uses (1, -1).
    ``pairs`` is stored as :class:`Runs`: any sequence of pairs is accepted,
    and one given as a ``Runs`` is kept unexpanded, so building and checking
    a system costs O(runs), not O(len(pairs)).  Each run's pair is checked
    against the vectors' dimension once.  Components that share an id are
    kept once, the first in order, and must agree in p and lambda.
    """

    v_left: Tuple[Fraction, ...]
    pairs: Runs
    v_right: Tuple[Fraction, ...]
    offset: Fraction = Fraction(0)
    sign: int = 1
    components: Tuple[Component, ...] = ()
    rate_unit: str = "absolute"
    family: str = ""

    def __post_init__(self):
        object.__setattr__(self, "v_left", tuple(as_exact(x) for x in self.v_left))
        object.__setattr__(self, "v_right", tuple(as_exact(x) for x in self.v_right))
        object.__setattr__(self, "offset", as_exact(self.offset))
        object.__setattr__(self, "pairs", Runs(self.pairs))
        components = {}
        for comp in self.components:
            first = components.setdefault(comp.id, comp)
            if (first.p, first.lam) != (comp.p, comp.lam):
                raise ReliabilityError(f"component {comp.id!r} is given twice with different values")
        object.__setattr__(self, "components", tuple(components.values()))
        if self.sign not in (1, -1):
            raise ReliabilityError("sign must be +1 or -1")
        dim = len(self.v_right)
        if len(self.v_left) != dim:
            raise DimensionMismatchError("v_left and v_right dimensions differ")
        for pair, _ in self.pairs.runs:
            if pair.dim != dim:
                raise DimensionMismatchError(
                    f"matrix shape {pair.shape} incompatible with dimension {dim}"
                )

    @property
    def dim(self) -> int:
        return len(self.v_right)

    @property
    def size(self) -> int:
        return len(self.pairs)

    def default_assignment(self) -> dict:
        return {c.id: (c.p, c.lam) for c in self.components}


# ---------------------------------------------------------------------------
# The single pass


def _scaler(values: Sequence, mode: str) -> Tuple[Callable, int]:
    """(num, scale), where num(x) is the number stored for x, x * scale: in
    exact mode an integer, with scale the lcm of the denominators of the
    rationals ``values``; in approx mode a float, with scale 1."""
    if mode != EXACT:
        return float, 1
    scale = lcm(*[x.denominator for x in values])
    return lambda x: x.numerator * (scale // x.denominator), scale


@dataclass(frozen=True)
class PassState:
    """The (A_k, V_k) vector pair threaded through the recursion, in the
    format of a :class:`Step`: integers over ``scale`` in exact mode, floats
    times ``2**-exponent`` in approx mode, renormalised after every step."""

    a_vec: Tuple[Scalar, ...]
    v_vec: Tuple[Scalar, ...]
    index: int
    mode: str = EXACT
    exponent: int = 0
    scale: int = 1

    def __post_init__(self):
        if len(self.a_vec) != len(self.v_vec):
            raise DimensionMismatchError("a_vec and v_vec dimensions differ")
        if self.scale < 1:
            raise ReliabilityError(f"state scale {self.scale} is below 1")


def initial_state(system: TransferSystem, mode: str = EXACT) -> PassState:
    """State before any matrix is consumed: A = vR, V = 0.

    Folding M'_1 in through the first step reproduces the textbook
    initialization, since M_1 . 0 = 0.
    """
    check_mode(mode)
    num, scale = _scaler(system.v_right, mode)
    a = tuple(map(num, system.v_right))
    return PassState(a, (num(0),) * len(a), 0, mode, scale=scale)


def _read_value(assignment: Mapping, cid: str, num) -> Tuple[Scalar, Scalar]:
    """(p, lam) of ``cid`` in an ``id -> (p, lam)`` map, converted by
    ``num``, after checking that the value is a pair with p in [0, 1]; a
    value may be any 2-element tuple or list, such as JSON's ``[p, lam]``."""
    try:
        val = assignment[cid]
    except KeyError:
        raise MissingAvailabilityError(cid) from None
    if not isinstance(val, (tuple, list)) or len(val) != 2:
        raise MissingRateError(cid)
    p = val[0]
    # a Fraction's denominator is positive: compare integers, not Fractions
    if not (0 <= p.numerator <= p.denominator if isinstance(p, Fraction) else 0 <= p <= 1):
        raise ReliabilityError(f"component {cid!r}: p={p} outside [0,1]")
    return num(p), num(val[1])


class Step(NamedTuple):
    """A matrix pair, or a power of one, compiled to numbers: ``rows`` holds,
    row by row in column order, ``(col, x, y)`` for each entry x + eps y of
    the dual matrix M + eps M' with x or y nonzero, stored as
    value * scale * 2**-exponent, the format of a :class:`PassState`."""

    rows: Tuple[Tuple[Tuple[int, Scalar, Scalar], ...], ...]
    scale: int
    exponent: int


def _duals(terms, ps, lams, pad, zero) -> list:
    """(x, y) for each slot of a layout's ``terms`` in order: the slot's
    polynomial and its rate-operator image, from one walk over its terms.
    A term c prod p_j adds c prod p_j to x and c prod p_j sum lambda_j to
    y, the eps-part of the term at p_j (1 + eps lambda_j) with eps^2 = 0.
    ``ps`` and ``lams`` hold the numbers of each variable, and a term of s
    variables starts from its coefficient times ``pad[s]``.  In approx mode
    every pad is 1, and x is computed in the operation order of
    :meth:`MultilinearPoly.evaluate` over ids that sort in variable order,
    so it equals that value."""
    duals = []
    for slot in terms:
        x = y = zero
        for c, vs in slot:
            term, lam_total = c * pad[len(vs)], zero
            for j in vs:
                term = term * ps[j]
                lam_total += lams[j]
            x += term
            y += term * lam_total
        duals.append((x, y))
    return duals


def _compile(pair: MatrixPair, assignment: Mapping, mode: str) -> Step:
    """The dual values of the nonzero entries of M into a :class:`Step`.

    The assignment is read, checked and converted once per bound id, in
    variable order, and nowhere else, so a streamed fold stays linear.
    Each slot's polynomial is then walked once by variable index, and each
    row of the layout gathers ``(col, x, y)`` from its slots: the q_i and
    p_i of a k-of-n matrix fill all 2k - 1 positions from two walks.  An
    entry stays when x or y is nonzero: q = 1 - p at p = 1 has x = 0 and
    y = -lambda.  The coefficients, their lcm and the degree come
    precomputed from the layout.

    Exact mode walks integers.  Each p is an integer over the lcm P of the
    p denominators, each lambda over their lcm L, each coefficient over the
    layout's ``coeff_scale`` C, and a term of s variables is padded by
    P^(d - s), where d is the layout's degree.  Then x = X L / D and
    y = Y / D with D = C P^d L, and dividing D and every value by their gcd
    makes the scale the lcm of the values' reduced denominators.
    """
    layout = pair.layout
    values = [_read_value(assignment, cid, as_exact if mode == EXACT else float) for cid in pair.ids]
    ps, lams = [p for p, _ in values], [lam for _, lam in values]
    if mode == EXACT:
        p_num, p_den = _scaler(ps, mode)
        lam_num, lam_den = _scaler(lams, mode)
        degree = layout.degree
        pad = [p_den ** (degree - s) for s in range(degree + 1)]
        duals = _duals(layout.int_terms, list(map(p_num, ps)), list(map(lam_num, lams)), pad, 0)
        duals = [(x * lam_den, y) for x, y in duals]
        denom = layout.coeff_scale * p_den**degree * lam_den
        g = gcd(denom, *(v for xy in duals for v in xy))
        scale = denom // g
        duals = [(x // g, y // g) for x, y in duals]
    else:
        duals = _duals(layout.float_terms, ps, lams, (1,) * (layout.degree + 1), 0.0)
        scale = 1
    rows = []
    for row in layout.rows:
        out = []
        for c, slot in row:
            x, y = duals[slot]
            if x or y:
                out.append((c, x, y))
        rows.append(tuple(out))
    return Step(tuple(rows), scale, 0)


def _normalise(rows):
    """(rows / 2**k, k) with the largest magnitude in [0.5, 1), or k = 0 when
    all are zero; dividing by a power of two is exact unless subnormal."""
    k = frexp(max(abs(x) for row in rows for x in row))[1]
    return [[ldexp(x, -k) for x in row] for row in rows], k


def _square(step: Step, mode: str) -> Step:
    """``step`` applied twice: (M + eps M')^2 = M M + eps (M M' + M' M), one
    dual matrix product, renormalised in approx mode."""
    dim = len(step.rows)
    xs = [[0] * dim for _ in range(dim)]
    ys = [[0] * dim for _ in range(dim)]
    for x_out, y_out, row in zip(xs, ys, step.rows):
        for j, x1, y1 in row:
            for c, x2, y2 in step.rows[j]:
                x_out[c] += x1 * x2
                y_out[c] += x1 * y2 + y1 * x2
    shift = 0
    if mode != EXACT:
        normalised, shift = _normalise(xs + ys)
        xs, ys = normalised[:dim], normalised[dim:]
    rows = tuple(
        tuple((c, x, y) for c, (x, y) in enumerate(zip(x_row, y_row)) if x or y)
        for x_row, y_row in zip(xs, ys)
    )
    return Step(rows, step.scale**2, 2 * step.exponent + shift)


def _advance(step: Step, a, v):
    """(values of M a, values of M v + M' a) for one compiled step: the dual
    product (M + eps M')(a + eps v)."""
    new_a, new_v = [], []
    for row in step.rows:
        x = y = 0
        for j, m, mp in row:
            x += m * a[j]
            y += m * v[j] + mp * a[j]
        new_a.append(x)
        new_v.append(y)
    return new_a, new_v


def _fold(
    state: PassState, runs: Iterable[Tuple[MatrixPair, int]], assignment: Mapping
) -> PassState:
    """Advance ``state`` through ``runs``, (pair, r) for r references to one
    pair, in order: the one fold behind :func:`stream_step` and
    :func:`single_pass`.  It takes the runs as given and scans no chain.

    Each distinct pair object is checked against the state's dimension and
    compiled once per call; a run of r references to it advances through the
    powers step^(2^i) of the set bits of r.  A step multiplies the state's
    scale by its own and adds its exponent, so nothing is divided.
    """
    mode, dim = state.mode, len(state.a_vec)
    a, v, index, exponent = state.a_vec, state.v_vec, state.index, state.exponent
    scale = state.scale
    powers = {}  # id(pair) -> [step, step^2, step^4, ...]
    for pair, r in runs:
        steps = powers.get(id(pair))
        if steps is None:
            if pair.dim != dim:
                raise DimensionMismatchError(
                    f"matrix shape {pair.shape} incompatible with state dimension {dim}"
                )
            steps = powers[id(pair)] = [_compile(pair, assignment, mode)]
        index += r
        for bit in range(r.bit_length()):
            if bit == len(steps):
                steps.append(_square(steps[-1], mode))
            if r >> bit & 1:
                step = steps[bit]
                a, v = _advance(step, a, v)
                scale *= step.scale
                exponent += step.exponent
                if mode != EXACT:
                    (a, v), k = _normalise((a, v))
                    exponent += k
    return PassState(tuple(a), tuple(v), index, mode, exponent, scale)


def stream_step(
    state: PassState, pair: MatrixPair, assignment: Mapping
) -> PassState:
    """Consume one matrix pair: the fold of :func:`single_pass`, one pair long.

    ``assignment`` maps ids to (p, lam) pairs, of which only the ids the
    pair reads are used; M' is evaluated from M and the rates, and a plain
    availability raises :class:`MissingRateError`.  The pair is compiled
    afresh on every call (no cache outlives a call, since pair ids can be
    reused after garbage collection).
    """
    return _fold(state, ((pair, 1),), assignment)


def log10_of(x: Scalar, exponent: int = 0) -> Optional[float]:
    """log10(x * 2**exponent), or None unless x > 0.  A rational is first
    scaled into (0.5, 2) by a power of two, so it may lie outside the double
    range, and a value near 1 keeps its digits."""
    if not x > 0:
        return None
    if isinstance(x, Fraction):
        k = x.numerator.bit_length() - x.denominator.bit_length()
        x = (x.numerator << max(-k, 0)) / (x.denominator << max(k, 0))
        exponent += k
    return log10(x) + exponent * log10(2)


@dataclass(frozen=True)
class ReliabilityReport:
    """A, U, mean failure frequency and mean failure rate of one system.

    Frequencies are absolute (per unit time) or multiples of a reference
    repair rate, per ``rate_unit``.  The log10 fields (None unless positive)
    hold also where an approx A or nu is below the double range and reads 0.
    """

    availability: Scalar
    unavailability: Scalar
    frequency: Scalar
    failure_rate: Optional[Scalar]
    mode: str
    rate_unit: str = "absolute"
    family: str = ""
    size: int = 0
    log10_availability: Optional[float] = None
    log10_frequency: Optional[float] = None

    def as_dict(self) -> dict:
        def block(value):
            entry = {"decimal": repr(float(value))}
            if self.mode == EXACT:
                entry["rational"] = rational_str(value)
            entry["per"] = self.rate_unit
            return entry

        out = {
            "availability": block(self.availability),
            "unavailability": block(self.unavailability),
            "frequency": block(self.frequency),
            "log10_availability": self.log10_availability,
            "log10_frequency": self.log10_frequency,
            "meta": {
                "family": self.family,
                "mode": self.mode,
                "size": self.size,
                "rate_unit": self.rate_unit,
            },
        }
        if self.failure_rate is not None:
            out["failure_rate"] = block(self.failure_rate)
        # availability and unavailability are dimensionless
        out["availability"]["per"] = "absolute"
        out["unavailability"]["per"] = "absolute"
        return out


def finalize(system: TransferSystem, state: PassState) -> ReliabilityReport:
    """Project a fully-advanced state with vL and apply the affine form.
    With vL in the state's format, X = vL.A and Y = vL.V are divided by the
    scales: the pass's two reductions in exact mode, divisions by 1 in
    approx mode.  With no offset, log10 A and nu/A = Y/X come from the
    projections, so they stay right when A is below the double range."""
    if state.index != system.size:
        raise ReliabilityError(
            f"state consumed {state.index} matrices, system has {system.size}"
        )
    mode, e, sign = state.mode, state.exponent, system.sign
    num, scale = _scaler(system.v_left, mode)
    vL = list(map(num, system.v_left))
    den, divide = scale * state.scale, (Fraction if mode == EXACT else truediv)
    x_s, y_s = (sum(map(mul, vL, vec)) for vec in (state.a_vec, state.v_vec))
    x_m, y_m = divide(x_s, den), divide(y_s, den)
    x, y = (x_m, y_m) if mode == EXACT else (ldexp(x_m, e), ldexp(y_m, e))
    offset = convert(system.offset, mode)
    availability = offset + sign * x
    # not 1 - availability: for offset 1 and sign -1 (k-of-n:G) this is x
    # itself, with no cancellation in approx mode
    unavailability = (1 - offset) - sign * x
    frequency = sign * y
    if offset == 0:
        log10_availability = log10_of(sign * x_m, e)
        failure_rate = divide(y_s, x_s) if x_s != 0 else None
    else:
        log10_availability = log10_of(availability)
        failure_rate = frequency / availability if availability != 0 else None
    return ReliabilityReport(
        availability=availability,
        unavailability=unavailability,
        frequency=frequency,
        failure_rate=failure_rate,
        mode=mode,
        rate_unit=system.rate_unit,
        family=system.family,
        size=system.size,
        log10_availability=log10_availability,
        log10_frequency=log10_of(sign * y_m, e),
    )


def single_pass(
    system: TransferSystem,
    assignment: Optional[Mapping] = None,
    mode: str = EXACT,
) -> ReliabilityReport:
    """Evaluate availability and failure frequency in one ordered pass.

    ``assignment`` maps component ids to (p, lam) pairs; when omitted, the
    values carried by the system's components are used.  A plain
    availability raises :class:`MissingRateError`: M' is evaluated in the
    pass from M and the rates.  The pass is the same fold as
    :func:`stream_step`, run over the stored runs of ``system.pairs`` at
    once: each distinct matrix-pair object is compiled once, so a shared
    cell's run of r references costs no polynomial work and O(log r) steps,
    and the chain is never expanded.  The exact state stays integers over
    one scale from :func:`initial_state` to :func:`finalize`, which makes
    the pass's two divisions.
    """
    if assignment is None:
        assignment = system.default_assignment()
    return finalize(system, _fold(initial_state(system, mode), system.pairs.runs, assignment))
