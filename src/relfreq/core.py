"""Transfer-matrix engine: matrix pairs built from term tuples, and the
single-pass availability/frequency recursion with the rate operator.

A system is described by ``A = offset + vL . M_n ... M_1 . vR``, vL
carrying any sign, where each matrix entry is a multilinear polynomial in
component availabilities.  The mean failure frequency comes from applying the linear
differential operator ``sum_i lambda_i p_i d/dp_i`` to A, which at the
matrix level means threading the pair (M_k, M'_k) through one ordered pass:

    A_k = M_k A_{k-1}
    V_k = M_k V_{k-1} + M'_k A_{k-1}

A family applies one matrix function to every component's values, so a
:class:`Layout` holds that function once: its ``(col, slot)`` positions
row by row and one polynomial per slot over local variables 0..v-1.  A
:class:`MatrixPair` binds a layout to the component ids of its variables,
so a pair stores no polynomial; a binding that names one component twice
is rewritten over its distinct ids, so that p_i p_i = p_i.  Pairs are
built and parsed from term tuples; :class:`MultilinearPoly` is only the
read-only view of an entry that :attr:`MatrixPair.m` shows.  M' is not
stored, since it follows from M and the rates.

One fold runs every pass: :func:`single_pass` folds all of a system's
pairs, :func:`stream_step` folds one.  With eps^2 = 0, a step of the
recursion is the dual product (A + eps V) <- (M + eps M')(A + eps V), and
a term c prod p_i of an entry of M evaluated at p_i (1 + eps lambda_i) is
its value plus eps times its rate-operator image.  Within a call the fold
compiles each distinct pair once into a numeric :class:`Step` by its
layout's kernel: a function generated from the shape of the layout's
terms the first time a layout of that shape is compiled in a mode and
bound to each layout's coefficients as data, whose straight-line code
reads each bound id and builds each slot's dual value (x, y), by
variable index.  The step keeps the layout's own ``(col, slot)`` rows, so
a k-of-n matrix's 2k - 1 positions read two duals, and it advances the
state by its layout's advance kernel, generated from those rows once per
rows and mode, in straight-line code.  A product of steps advances it by
a loop over its rows, since its rows depend on its values.
A run of r references to one pair is the dual power (M + eps M')^r, taken
by squaring: O(log r) steps.  An exact state grows with the chain, so once
it is large the fold applies a block of dense single steps as their
product, multiplied up a balanced tree by the same dual product: a long
exact chain costs less than quadratic time.  The dual product makes one
pass into flat lists of values and eps parts; a dense product shares one
rows tuple per dimension.  Steps and states store
value * scale * 2**-exponent: exact mode integers over a common
denominator, approx mode floats over scale 1 with a binary exponent
against underflow, rescaled by one multiply by a power of two when a
product or advance moves the exponent, that is when its largest
magnitude leaves [0.5, 1).  A step pays only for its arithmetic: an
approx state already in [0.5, 1) is not rescaled, an exact row sum
starts from its first product rather than copying it into 0 + x, and a
state is set by one write.
:func:`initial_state` puts vR over its lcm, the fold multiplies the
state's scale by each step's, and :func:`finalize` divides vL.A and vL.V
by it, once each.  The compile reads each p and lambda once, a Fraction
by one type test and its integer ratio, with no re-coercion: exact mode
puts the ratios over common denominators, so no Fraction is made in
between, and approx mode divides the two integers, which is what
``float`` of a Fraction does.

A system stores its pairs as :class:`Runs`, (pair, r) runs that are never
expanded, so building, checking and folding a system cost O(runs + sum of
log r).  Memory use is O(runs + vector dimension) plus O(dim^2 log r) for
the powers of a run, independent of the number of matrices.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import chain, repeat
from math import copysign, frexp, gcd, inf, isfinite, isnan, lcm, ldexp, log10
from operator import index as to_index, mul
from typing import Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from .scalars import APPROX, EXACT, Scalar, as_exact, check_mode, rational_str


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


def _unread_error(cid, names: str, values: tuple) -> ReliabilityError:
    """The error for the ``values`` of component ``cid``, called ``names``,
    of which one failed to read as an exact number.  The first such value
    "is not finite" when it reads as a float NaN or infinity, as a float, a
    Decimal or a string such as ``"nan"`` or ``"-inf"`` does, and "is not a
    number" otherwise: an unparsable string, ``"1/0"`` or ``None``."""
    finite = True
    for x in values:
        try:
            as_exact(x)
        except (ValueError, OverflowError, TypeError, ZeroDivisionError):
            try:
                finite = isfinite(float(x))
            except (ValueError, TypeError):
                pass
            break
    return ReliabilityError(
        f"component {cid!r}: ({names}) = {values} is {'not a number' if finite else 'not finite'}")


def read_field(name: str, value, integer: bool = False):
    """``value`` read as a Fraction by ``as_exact``, or as an int by
    ``operator.index`` when ``integer``; one that does not read is a
    :class:`ReliabilityError` naming the field ``name``."""
    try:
        return to_index(value) if integer else as_exact(value)
    except (ValueError, OverflowError, TypeError, ZeroDivisionError):
        raise ReliabilityError(f"{name}={value!r} is not {'an integer' if integer else 'a number'}") from None


@dataclass(frozen=True)
class Component:
    """One repairable element.

    ``lam`` is the failure rate per unit time; when rates are expressed as
    multiples of a single reference repair rate, it is the multiplier.
    Both are stored as Fractions, kept as given when they are.  The checks
    (finite, 0 <= p <= 1, lam >= 0, lam = 0 at p = 1) read integer ratios.
    """

    id: str
    p: Fraction
    lam: Fraction = Fraction(0)

    def __post_init__(self):
        p, lam = self.p, self.lam
        if not (isinstance(p, Fraction) and isinstance(lam, Fraction)):
            try:
                p, lam = as_exact(p), as_exact(lam)
            except (ValueError, OverflowError, TypeError, ZeroDivisionError):
                raise _unread_error(self.id, "p, lambda", (self.p, self.lam)) from None
            object.__setattr__(self, "p", p)
            object.__setattr__(self, "lam", lam)
        # a Fraction's denominator is positive: compare integers, not Fractions
        (p_num, p_den), (lam_num, _) = p.as_integer_ratio(), lam.as_integer_ratio()
        if not 0 <= p_num <= p_den:
            raise ReliabilityError(f"component {self.id!r}: p={p} outside [0,1]")
        if lam_num < 0:
            raise ReliabilityError(f"component {self.id!r}: negative failure rate")
        if p_num == p_den and lam_num:
            raise ReliabilityError(
                f"component {self.id!r}: a perfect component must have zero failure rate"
            )

    @classmethod
    def steady_state(cls, id: str, p, mu=1) -> "Component":
        """Component whose failure rate satisfies lam * p = mu * (1 - p),
        made from integer ratios as one Fraction mu_n (p_d - p_n) / (mu_d p_n)."""
        try:
            p, mu = as_exact(p), as_exact(mu)
        except (ValueError, OverflowError, TypeError, ZeroDivisionError):
            raise _unread_error(id, "p, mu", (p, mu)) from None
        (p_num, p_den), (mu_num, mu_den) = p.as_integer_ratio(), mu.as_integer_ratio()
        if mu_num < 0:
            raise ReliabilityError(f"component {id!r}: negative repair rate")
        if p_num == 0:
            raise ReliabilityError(f"component {id!r}: p=0 has no steady-state rate")
        return cls(id, p, Fraction(mu_num * (p_den - p_num), mu_den * p_num))


# ---------------------------------------------------------------------------
# Terms, and the read-only polynomial view


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
    """Read-only view of a multilinear polynomial over component
    availabilities, as :attr:`MatrixPair.m` shows an entry; it has no
    arithmetic.

    Terms map a sorted tuple of component ids to a rational coefficient;
    the empty tuple is the constant term.  The constructor normalises a
    ``{ids: coeff}`` map or its items by :func:`_norm_terms`, so that p_i
    p_i = p_i.  Because the ids are sorted, :meth:`evaluate` multiplies a
    term's factors in one fixed order, so float results do not depend on
    the interpreter's hash seed.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping = ()):
        self._terms = _norm_terms(terms)

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

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


def apply_rate_operator(
    poly: MultilinearPoly, rates: Mapping[str, Scalar]
) -> MultilinearPoly:
    """Apply ``sum_i lambda_i p_i d/dp_i`` to a multilinear polynomial.

    A term c * prod_{i in S} p_i maps to (sum_{i in S} lambda_i) * c *
    prod_{i in S} p_i, so the image lives on the same monomials.  Constants
    are annihilated.  The pass gets the image's value from a layout's kernel
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
    0..v-1, as a ``{(j, ...): coeff}`` map or its items; it is stored
    normalised by :func:`_norm_terms`, so p_j p_j = p_j, and ``variables``
    is v.  A :class:`MatrixPair` binds each variable to a
    component id.

    The constructor is the one check of a layout: it rejects the wrong
    number of rows, a column out of range, out of order or repeated, a slot
    out of range or unused, a zero polynomial and a variable that no term
    reads.  It also derives ``dense``, whether every row holds all ``dim``
    columns, which the exact fold reads when it chooses to apply steps in
    blocks.

    A compile calls the layout's kernel for its mode, made at the layout's
    first compile in that mode by the factory of its term shape (see
    :func:`_kernel_source`) from its own coefficients, and kept on the
    layout.  Factories are cached by shape and mode, so layouts whose terms
    differ only in coefficients or rows, such as every k-of-n:G layout of
    k >= 2, share one generated function.  The fold advances the state by
    a step compiled from the layout through the layout's advance for its
    mode, generated from its rows (see :func:`_advance_source`), cached by
    rows and mode and kept on the layout.  Nothing is generated at import
    or for a mode that is never compiled.
    """

    dim: int
    rows: Tuple[Tuple[Tuple[int, int], ...], ...]
    polys: Tuple[Tuple[Tuple[Tuple[int, ...], Fraction], ...], ...]
    variables: int = field(init=False, compare=False)
    dense: bool = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "variables", len(read))
        object.__setattr__(self, "dense", min(map(len, rows)) == self.dim)

    @cached_property
    def exact_kernel(self):
        """The exact kernel (see :func:`_compile`), bound at this layout's
        first exact compile."""
        return self._bind(EXACT)

    @cached_property
    def approx_kernel(self):
        """The approx kernel, bound at this layout's first approx compile,
        so exact mode converts no coefficient to a float."""
        return self._bind(APPROX)

    @cached_property
    def exact_advance(self):
        """The exact advance of a step compiled from this layout (see
        :func:`_advance_source`), read at the layout's first exact fold, so
        that its rows are hashed once per layout and mode."""
        return _advance_kernel(self.rows, EXACT)

    @cached_property
    def approx_advance(self):
        """The approx advance of a step compiled from this layout."""
        return _advance_kernel(self.rows, APPROX)

    def _bind(self, mode: str):
        """The kernel of this layout in ``mode``: the factory of its term
        shape called with the coefficients made mode numbers over a scale
        C by :func:`_numbers`, as C and the magnitude of each number that
        is not +-1.  An approx coefficient beyond the double range is named
        by the first entry of a slot that holds the largest."""
        slots = [s for s, poly in enumerate(self.polys) for _ in poly]

        def label(i):
            r, col = next((r, col) for r, row in enumerate(self.rows) for col, s in row if s == slots[i])
            return f"matrix entry ({r}, {col}): coefficient"

        numbers, scale = _numbers([c for poly in self.polys for _, c in poly], mode, label)
        flat = iter(numbers)  # zip reads poly first, so it takes one number per term
        shape = tuple(tuple((vs, c > 0, abs(c) == 1) for (vs, _), c in zip(poly, flat))
                      for poly in self.polys)
        return _kernel(shape, mode)(scale, *[abs(c) for c in numbers if abs(c) != 1])


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
    one component twice need p_i p_i = p_i: the constructor then binds the
    layout's terms to the ids and rebuilds the pair from those terms
    through :meth:`from_entries`, so ``layout`` and ``ids`` become that
    pair's.  ``m`` is a read-only view derived from the layout and the ids.
    """

    layout: Layout
    ids: Tuple[str, ...]

    def __post_init__(self):
        layout, ids = self.layout, tuple(self.ids)
        if len(ids) != layout.variables:
            raise ReliabilityError(f"{len(ids)} ids for a layout of {layout.variables} variables")
        if len(set(ids)) != len(ids):
            terms = [[(tuple(ids[j] for j in vs), c) for vs, c in poly] for poly in layout.polys]
            merged = MatrixPair.from_entries(layout.dim, [
                (r, col, terms[slot]) for r, row in enumerate(layout.rows) for col, slot in row
            ])
            layout, ids = merged.layout, merged.ids
            object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "ids", ids)

    @property
    def dim(self) -> int:
        return self.layout.dim

    @property
    def m(self) -> Tuple[Tuple[Entry, ...], ...]:
        """The nonzero entries of M, as :class:`Entry` triples grouped into
        ``dim`` rows in column order, each slot's polynomial read over the
        bound ids."""
        ids = self.ids
        polys = [MultilinearPoly([(tuple(ids[j] for j in vs), c) for vs, c in poly])
                 for poly in self.layout.polys]
        return tuple(
            tuple(Entry(r, col, polys[slot]) for col, slot in row)
            for r, row in enumerate(self.layout.rows)
        )

    @classmethod
    def from_entries(cls, dim: int, entries: Iterable) -> "MatrixPair":
        """Pair from ``(row, col, terms)`` triples in any order, ``terms``
        being a ``{ids: coeff}`` map or its items, normalised by
        :func:`_norm_terms`.  Zero entries are dropped, equal normalised
        terms share one slot, each row is sorted by column, and the
        variables are the sorted ids that the terms read; the layout's
        constructor then rejects a bad column or a position given twice.
        With no entries it is the zero pair."""
        rows = [[] for _ in range(dim)]
        slots = {}  # normalised terms -> slot, in slot order
        for r, c, terms in entries:
            if not 0 <= r < dim:
                raise DimensionMismatchError(f"entry ({r}, {c}) outside a {dim}x{dim} matrix")
            terms = _norm_terms(terms)
            if terms:
                rows[r].append((c, slots.setdefault(terms, len(slots))))
        ids = sorted({cid for terms in slots for key, _ in terms for cid in key})
        var = {cid: j for j, cid in enumerate(ids)}
        polys = [[(tuple(map(var.__getitem__, key)), c) for key, c in terms] for terms in slots]
        return cls(Layout(dim, map(sorted, rows), polys), ids)


class Runs:
    """A chain of references stored as its runs: ``runs`` holds (item, r) for
    each run of r >= 1 consecutive references to one object, and no two
    adjacent runs hold the same object.

    A chain is never expanded: a run of r references costs O(1) memory, so
    a chain of shared cells of any length fits and passes in approx mode (an
    exact state grows with the chain).  Its number of references is
    ``length``, a plain int of any size, and iterating it yields each
    reference in order.  It has no ``len()`` and no index: a short chain is
    indexed as ``tuple(chain)[i]``.
    ``Runs(items)`` reads each item of a plain iterable as a run of 1 and
    :meth:`from_runs` takes the runs themselves; both store them through
    one merge.  A ``Runs`` given to ``Runs`` is taken as it is, in O(1).
    """

    __slots__ = ("runs", "length")

    def __init__(self, items: Iterable = ()):
        if isinstance(items, Runs):
            self.runs, self.length = items.runs, items.length
        else:
            self._merge(zip(items, repeat(1)))

    @classmethod
    def from_runs(cls, runs: Iterable[Tuple[object, int]]) -> "Runs":
        """The chain of ``r`` references to each ``item`` in turn, from
        (item, r) pairs."""
        out = cls.__new__(cls)
        out._merge(runs)
        return out

    def _merge(self, runs: Iterable[Tuple[object, int]]) -> None:
        """Store the maximal runs of (item, r) pairs: runs of length 0 are
        dropped and adjacent runs of one object, matched by identity, joined."""
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
        self.runs = tuple(merged)
        self.length = sum(r for _, r in merged)

    def __bool__(self) -> bool:
        return bool(self.runs)

    def __iter__(self) -> Iterator:
        return chain.from_iterable(repeat(item, r) for item, r in self.runs)

    def __eq__(self, other):
        """Equal when the runs are, so that systems built alike compare
        equal.  Unlike a tuple, r references to one object differ here from
        r distinct but equal objects."""
        if not isinstance(other, Runs):
            return NotImplemented
        return self.runs == other.runs

    def __hash__(self):
        return hash(self.runs)

    def __repr__(self) -> str:
        return f"Runs.from_runs({list(self.runs)!r})"


@dataclass(frozen=True)
class TransferSystem:
    """Left vector, ordered matrix pairs, right vector and offset.

    The first pair is applied first (adjacent to ``v_right``).  The reported
    availability is ``offset + vL . product . vR``, vL carrying any sign:
    the offset is 0 by default, and the k-out-of-n:G construction reports
    1 minus a projection through offset 1 and vL = (-1, 0, ..., 0).
    ``pairs`` is stored as :class:`Runs`: any sequence of pairs is accepted,
    and one given as a ``Runs`` is kept unexpanded, so building and checking
    a system costs O(runs), not O(pairs.length).  The vectors must hold at
    least one state, and each run's pair is checked against their dimension
    once.  Components that share an id are
    kept once, the first in order, and must agree in p and lambda.
    """

    v_left: Tuple[Fraction, ...]
    pairs: Runs
    v_right: Tuple[Fraction, ...]
    offset: Fraction = Fraction(0)
    components: Tuple[Component, ...] = ()
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
        dim = len(self.v_right)
        if len(self.v_left) != dim:
            raise DimensionMismatchError("v_left and v_right dimensions differ")
        if not dim:
            raise DimensionMismatchError("a system needs at least one state: v_left and v_right are empty")
        for pair, _ in self.pairs.runs:
            if pair.dim != dim:
                raise DimensionMismatchError(
                    f"matrix shape ({pair.dim}, {pair.dim}) incompatible with dimension {dim}"
                )

    @property
    def dim(self) -> int:
        return len(self.v_right)

    @property
    def size(self) -> int:
        return self.pairs.length

    def default_assignment(self) -> dict:
        return {c.id: (c.p, c.lam) for c in self.components}


# ---------------------------------------------------------------------------
# The single pass


def _numbers(values: Sequence[Fraction], mode: str, label) -> Tuple[List[Scalar], int]:
    """(numbers, scale) for a system's exact constants ``values``, a vector,
    the offset or a layout's coefficients, each number being a value times
    scale: exact-mode integers over the lcm of the denominators, or approx
    floats n / d over 1, rounded as ``float`` of a Fraction.  An approx
    value beyond the double range is a :class:`ReliabilityError` naming
    the largest, at index i, as ``label(i)``."""
    ratios = [x.as_integer_ratio() for x in values]
    if mode == EXACT:
        scale = lcm(*[d for _, d in ratios])
        return [n * (scale // d) for n, d in ratios], scale
    try:
        return [n / d for n, d in ratios], 1
    except OverflowError:
        i = max(range(len(values)), key=lambda i: abs(values[i]))
        raise ReliabilityError(f"{label(i)} beyond the double range; exact mode accepts it") from None


@dataclass(frozen=True, init=False)
class PassState:
    """The (A_k, V_k) vector pair threaded through the recursion, in the
    format of a :class:`Step`: integers over ``scale`` in exact mode, floats
    times ``2**-exponent`` in approx mode, whose largest magnitude lies in
    [0.5, 1) after every step unless all are zero.

    The constructor checks that the vectors have one dimension and that the
    scale is at least 1, then sets the six fields with one write to the
    instance ``__dict__``: a streamed fold makes one state per step, and a
    generated frozen ``__init__`` would make one ``object.__setattr__``
    call per field.  ``dataclasses.replace`` calls it, so it re-checks."""

    a_vec: Tuple[Scalar, ...]
    v_vec: Tuple[Scalar, ...]
    index: int
    mode: str = EXACT
    exponent: int = 0
    scale: int = 1

    def __init__(self, a_vec, v_vec, index, mode=EXACT, exponent=0, scale=1):
        if len(a_vec) != len(v_vec):
            raise DimensionMismatchError("a_vec and v_vec dimensions differ")
        if scale < 1:
            raise ReliabilityError(f"state scale {scale} is below 1")
        self.__dict__.update(a_vec=a_vec, v_vec=v_vec, index=index, mode=mode,
                             exponent=exponent, scale=scale)


def initial_state(system: TransferSystem, mode: str = EXACT) -> PassState:
    """State before any matrix is consumed: A = vR, V = 0.

    Folding M'_1 in through the first step reproduces the textbook
    initialization, since M_1 . 0 = 0.
    """
    check_mode(mode)
    a, scale = _numbers(system.v_right, mode, "v_right[{}]".format)
    return PassState(tuple(a), (0 if mode == EXACT else 0.0,) * len(a), 0, mode, scale=scale)


def _read_value(assignment: Mapping, cid: str) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """(p, lam) of ``cid`` in an ``id -> (p, lam)`` map, each as an integer
    ratio (n, d) with d > 0, after checking that the value is a pair of
    finite numbers with p in [0, 1] and lam >= 0; a value may be any
    2-element tuple or list, such as JSON's ``[p, lam]``.  A Fraction is
    read by its ``as_integer_ratio()``, any other number through
    :func:`as_exact` first.  A nonzero lam at p = 1 is accepted: the pass
    is pure algebra."""
    try:
        val = assignment[cid]
    except KeyError:
        raise MissingAvailabilityError(cid) from None
    if not isinstance(val, (tuple, list)) or len(val) != 2:
        raise MissingRateError(cid)
    p, lam = val
    try:
        p = (p if type(p) is Fraction else as_exact(p)).as_integer_ratio()
        lam = (lam if type(lam) is Fraction else as_exact(lam)).as_integer_ratio()
    except (ValueError, OverflowError, TypeError, ZeroDivisionError):
        raise _unread_error(cid, "p, lambda", tuple(val)) from None
    if not 0 <= p[0] <= p[1]:
        raise ReliabilityError(f"component {cid!r}: p={val[0]} outside [0,1]")
    if lam[0] < 0:
        raise ReliabilityError(f"component {cid!r}: negative failure rate {val[1]}")
    return p, lam


class Step(NamedTuple):
    """A matrix pair, or a power or product of pairs, compiled to numbers:
    ``duals[slot]`` is the entry x + eps y of M + eps M' at each ``(col,
    slot)`` of ``rows``, row by row in column order, stored as value * scale
    * 2**-exponent, the format of a :class:`PassState`.  A compiled step has
    its layout's rows and one dual per slot; a product of steps, a slot per
    position whose x or y is nonzero, and a dense product the one rows
    tuple of its dimension."""

    rows: Tuple[Tuple[Tuple[int, int], ...], ...]
    duals: Sequence[Tuple[Scalar, Scalar]]
    scale: int
    exponent: int


def _rate_error(ids, assignment) -> ReliabilityError:
    """The error of an approx compile whose pair reads a rate beyond the
    double range, once every id has been read and checked: it names the
    first id of the largest rate."""
    cid = max(ids, key=lambda cid: Fraction(*_read_value(assignment, cid)[1]))
    return ReliabilityError(f"component {cid!r}: failure rate beyond the double range; exact mode accepts it")


def _kernel_source(shape, mode: str) -> str:
    """Source of the kernel factory of a term ``shape`` in ``mode``: for
    each slot, ``(vs, positive, unit)`` per term, unit meaning c = +-1.
    ``factory(C, c1, ...)`` takes the coefficients' scale C (their lcm in
    exact mode; 1, unread, in approx mode) and each non-unit |c| in term
    order, and returns ``kernel(ids, assignment, rows)``: the
    :class:`Step` of the pair binding variable j to ``ids[j]``, in
    straight-line code over the variable indices.  No coefficient value is
    in the source.

    The kernel reads each id by ``read`` (:func:`_read_value`) in variable
    order, makes each p and lambda a number, and then builds each slot's
    dual (x, y): a term c prod p_j adds c prod p_j to x and c prod p_j sum
    lambda_j to y, the eps-part of the term at p_j (1 + eps lambda_j) with
    eps^2 = 0.  Every sum and product is one statement, so no expression
    grows with the layout, and a product or rate sum that several terms
    start with is made once.

    Exact mode puts each p over the lcm P of the p denominators, each
    lambda over their lcm L and each coefficient over C, and pads a term
    of s variables by P^(d - s), d being the degree; P and L are 1 for a
    layout of no variables.  Then x = X L / D and y = Y / D with
    D = C P^d L, and dividing D and every value by their gcd makes the
    scale the lcm of the values' reduced denominators.  Integer sums do
    not depend on their order.

    Approx mode divides each ratio's two integers, which rounds as
    ``float`` of a Fraction does, and keeps the float operations of the
    term walk it replaced: a term is ((c p_a) p_b) ... and its rate sum
    ((0.0 + lambda_a) + lambda_b) ... over the variables in index order,
    and each slot's x and y add the terms in order to 0.0.  What it leaves
    out changes no bit: a factor c = 1 and the 0.0 a rate sum starts from;
    the 0.0 a sum starts from when the first term is not negative, so it
    cannot be -0.0; the y of a constant term, c * 0.0, which leaves a sum
    started from 0.0 as it was.  A term of c < 0 subtracts the product
    of |c|, which negation gives bit for bit, since rounding is symmetric
    in sign."""
    exact = mode == EXACT
    v = 1 + max((j for poly in shape for vs, _, _ in poly for j in vs), default=-1)
    degree = max((len(vs) for poly in shape for vs, _, _ in poly), default=0)
    body = [f"({''.join(f'i{j}, ' for j in range(v))}) = ids"]
    body.extend(f"(n{j}, d{j}), (m{j}, e{j}) = read(assignment, i{j})" for j in range(v))
    emit = body.append
    if exact:
        emit(f"P = lcm({', '.join(f'd{j}' for j in range(v))})")
        emit(f"L = lcm({', '.join(f'e{j}' for j in range(v))})")
        body.extend(f"p{j} = n{j} * (P // d{j})" for j in range(v))
        body.extend(f"l{j} = m{j} * (L // e{j})" for j in range(v))
    else:
        body.extend(f"p{j} = n{j} / d{j}" for j in range(v))
        if v:  # an empty try is not Python
            emit("try:")
            body.extend(f"    l{j} = m{j} / e{j}" for j in range(v))
            emit("except OverflowError:")
            emit("    raise rate_error(ids, assignment) from None")
    names = {}  # what a statement made -> its variable

    def made(key, expr):
        if key not in names:
            names[key] = f"t{len(names)}"
            emit(f"{names[key]} = {expr}")
        return names[key]

    def product(first, vs, key):
        """The product first * p_vs[0] * p_vs[1] ..., one statement per factor."""
        name = first
        for i, j in enumerate(vs):
            name = f"p{j}" if name is None else made(key + vs[:i + 1], f"{name} * p{j}")
        return name

    powers = ["1", "P"]

    def power(e):
        """P^e, one statement per factor."""
        while len(powers) <= e:
            powers.append(made(("power", len(powers)), f"{powers[-1]} * P"))
        return powers[e]

    def rate_sum(vs):
        name = None
        for i, j in enumerate(vs):
            name = f"l{j}" if name is None else made(("rate",) + vs[:i + 1], f"{name} + l{j}")
        return name

    params = ["C"]
    duals = []
    for s, poly in enumerate(shape):
        x, y = f"x{s}", f"y{s}"
        xs, ys = [], []  # (sign, value) added to x and y
        for vs, positive, unit in poly:
            c = f"c{len(params)}"
            if not unit:
                params.append(c)
            if exact:
                pad = degree - len(vs)
                value = product(None, vs, ("prod",)) if vs else power(pad)
                if vs and pad:
                    value = made(("pad", vs), f"{value} * {power(pad)}")
                if not unit:
                    value = made(("coeff", c), f"{c} * {value}")
            elif not vs:
                value = "1.0" if unit else c
            else:
                value = product(None if unit else c, vs, ("prod",) if unit else ("coeff", c))
            sign = "+" if positive else "-"
            xs.append((sign, value))
            if vs:
                ys.append((sign, made(("rate term", value), f"{value} * {rate_sum(vs)}")))
        for total, terms in ((x, xs), (y, ys)):
            for i, (sign, value) in enumerate(terms):
                if i:
                    emit(f"{total} {sign}= {value}")
                elif sign == "+":
                    emit(f"{total} = {value}")
                else:
                    emit(f"{total} = {'-' if exact else '0.0 - '}{value}")
            if not terms:
                emit(f"{total} = {'0' if exact else '0.0'}")
            elif exact and total == x:
                emit(f"{x} *= L")
        duals.append((x, y))
    if exact:
        emit(f"D = {power(degree)} * L * C")
        emit(f"g = gcd(D, {', '.join(chain.from_iterable(duals))})")
        emit(f"return step((rows, [{', '.join(f'({x} // g, {y} // g)' for x, y in duals)}], D // g, 0))")
    else:
        emit(f"return step((rows, [{', '.join(f'({x}, {y})' for x, y in duals)}], 1, 0))")
    return (f"def factory({', '.join(params)}):\n    def kernel(ids, assignment, rows):\n"
            + "".join(f"        {line}\n" for line in body) + "    return kernel\n")


@lru_cache(maxsize=256)
def _kernel(shape, mode: str):
    """The kernel factory of :func:`_kernel_source`, compiled once per
    distinct shape and mode: layouts whose terms differ only in their
    coefficients, whatever their rows, share it."""
    namespace = {"read": _read_value, "lcm": lcm, "gcd": gcd, "step": Step._make, "rate_error": _rate_error}
    exec(compile(_kernel_source(shape, mode), f"<relfreq {mode} kernel>", "exec"), namespace)
    return namespace["factory"]


def _compile(pair: MatrixPair, assignment: Mapping, mode: str) -> Step:
    """The dual value of each slot of the pair's layout, in a :class:`Step`
    whose rows are the layout's own ``rows`` object: the layout's kernel
    for ``mode`` (see :func:`_kernel_source`) called on the pair's ids.

    The assignment is read and checked once per bound id, in variable
    order, by :func:`_read_value`, and nowhere else, so a streamed fold
    stays linear; each p and lambda becomes a number once, straight from
    its integer ratio, and each slot's dual is built once, so the q_i and
    p_i of a k-of-n matrix fill all 2k - 1 positions.  A slot's dual may
    be (0, 0), as q = 1 - p is at p = 1 with lambda = 0.  In approx mode a
    rate beyond the double range is a :class:`ReliabilityError` naming the
    pair's largest rate, raised once every id has been read and checked.
    """
    layout = pair.layout
    kernel = layout.exact_kernel if mode == EXACT else layout.approx_kernel
    return kernel(pair.ids, assignment, layout.rows)


def _normalise(xs, ys):
    """(xs / 2**k, ys / 2**k, k) as lists of floats, with the largest
    magnitude of both in [0.5, 1), or k = 0 when all are zero.  When the
    largest magnitude already lies in [0.5, 1), k is 0 and the lists are
    returned as they are: the callers pass lists of floats only, whose
    division by 2**0 is the identity.  Otherwise 2**-k is an exact double
    for every k a finite value gives above -1024, so one multiply by it
    rounds the exact quotient once, as ``ldexp(x, -k)`` does; an all-zero
    input is multiplied by 1.0, which makes an int zero 0.0.  Only a
    largest magnitude below 2**-1024, whose 2**-k would overflow, sends
    each value through ``ldexp``."""
    largest = max(map(abs, chain(xs, ys)))
    if 0.5 <= largest < 1.0:
        return xs, ys, 0
    k = frexp(largest)[1]
    if k > -1024:
        f = ldexp(1.0, -k)
        return [x * f for x in xs], [y * f for y in ys], k
    return [ldexp(x, -k) for x in xs], [ldexp(y, -k) for y in ys], k


@lru_cache(maxsize=256)
def _dense_rows(dim: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """The rows of a dense dim x dim product: slot r * dim + c at (r, c)."""
    return tuple(tuple((c, r * dim + c) for c in range(dim)) for r in range(dim))


def _mul(s2: Step, s1: Step, mode: str) -> Step:
    """``s1`` then ``s2`` as one step: (M2 + eps M2')(M1 + eps M1') = M2 M1 +
    eps (M2 M1' + M2' M1), the one dual matrix product, renormalised in
    approx mode.  ``_mul(s, s)`` squares a step.

    One pass accumulates the values x into ``xs`` and the eps parts y into
    ``ys``, flat lists of dim^2 entries in row-major order, each position
    adding its products in the order of s2's row and s1's rows to a zero
    of the mode: 0.0 in approx mode, so every number is a float and
    :func:`_normalise` may return the lists as they are.  Approx mode
    rescales both by :func:`_normalise`.  When every x is nonzero the
    product is dense: its rows are the one cached tuple for ``dim`` and
    its duals ``zip(xs, ys)``.  Otherwise it keeps, row by row, each
    position whose x or y is nonzero, one slot per position."""
    rows2, duals2, rows1, duals1 = s2.rows, s2.duals, s1.rows, s1.duals
    dim, zero = len(rows2), 0 if mode == EXACT else 0.0
    xs, ys = [], []
    for row in rows2:
        x_out, y_out = [zero] * dim, [zero] * dim
        for j, s in row:
            x1, y1 = duals2[s]
            for c, t in rows1[j]:
                x2, y2 = duals1[t]
                x_out[c] += x1 * x2
                y_out[c] += x1 * y2 + y1 * x2
        xs += x_out
        ys += y_out
    shift = 0
    if mode != EXACT:
        xs, ys, shift = _normalise(xs, ys)
    if all(xs):
        rows, duals = _dense_rows(dim), list(zip(xs, ys))
    else:
        rows, duals = [], []
        for base in range(0, dim * dim, dim):
            row = []
            for c in range(dim):
                x, y = xs[base + c], ys[base + c]
                if x or y:
                    row.append((c, len(duals)))
                    duals.append((x, y))
            rows.append(tuple(row))
        rows = tuple(rows)
    return Step(rows, duals, s2.scale * s1.scale, s2.exponent + s1.exponent + shift)


def _product(steps: List[Step], mode: str) -> Step:
    """``steps`` applied in order, ``steps[0]`` first, as one step: adjacent
    steps are multiplied pairwise up a balanced tree, so each product joins
    factors of about equal size."""
    while len(steps) > 1:
        steps = [_mul(steps[i + 1], steps[i], mode) if i + 1 < len(steps) else steps[i]
                 for i in range(0, len(steps), 2)]
    return steps[0]


def _advance(step: Step, a, v, mode: str):
    """(values of M a, values of M v + M' a) for a product of steps: the
    dual product (M + eps M')(a + eps v), each a[j] read once per position.
    A step compiled from a layout is advanced by its layout's generated
    advance instead (see :func:`_advance_source`), which computes the same
    numbers; a product's rows depend on its values, since a sparse product
    keeps only its nonzero positions, so no finite set of kernels covers
    them.

    An approx row sum starts from 0.0, so an empty row gives 0.0 and a row
    of -0.0 products 0.0, and every value is a float.  An exact row sum
    starts from its first product, since 0 + x would copy a big integer
    x; an empty row gives the int 0."""
    duals, new_a, new_v = step.duals, [], []
    if mode != EXACT:
        for row in step.rows:
            x = y = 0.0
            for j, s in row:
                m, mp = duals[s]
                aj = a[j]
                x += m * aj
                y += m * v[j] + mp * aj
            new_a.append(x)
            new_v.append(y)
        return new_a, new_v
    for row in step.rows:
        x = y = None
        for j, s in row:
            m, mp = duals[s]
            aj = a[j]
            if x is None:
                x, y = m * aj, m * v[j] + mp * aj
            else:
                x += m * aj
                y += m * v[j] + mp * aj
        if x is None:
            x = y = 0
        new_a.append(x)
        new_v.append(y)
    return new_a, new_v


# A generated row sum adds at most ROW_TERMS positions per statement, so
# that no expression nests deeper than the compiler accepts.
ROW_TERMS = 200


def _advance_source(rows, mode: str) -> str:
    """Source of ``advance(duals, a, v)``, the :func:`_advance` of a step
    with these ``rows`` and one dual per slot, in straight-line code: it
    unpacks the duals, a and v into locals once and writes each row's x
    and y as one sum.  An exact sum starts from its first product and an
    empty row is the int 0.  An approx sum keeps the loop's float
    operations: x = 0.0 + m_s a_j + m_t a_k ... left to right, and
    y = 0.0 + (m_s v_j + n_s a_j) + ..., so an empty row is 0.0 and -0.0
    products sum to 0.0.  A row of more than ``ROW_TERMS`` positions goes
    on in further statements, x = x + ..., which changes no operation."""
    exact = mode == EXACT
    slots = 1 + max((s for row in rows for _, s in row), default=-1)
    body = [f"({''.join(f'(m{s}, n{s}), ' for s in range(slots))}) = duals",
            f"{''.join(f'a{j}, ' for j in range(len(rows)))}= a",
            f"{''.join(f'v{j}, ' for j in range(len(rows)))}= v"]
    for r, row in enumerate(rows):
        for name, term in ((f"x{r}", "m{s} * a{j}"), (f"y{r}", "(m{s} * v{j} + n{s} * a{j})")):
            sums = [" + ".join(term.format(s=s, j=j) for j, s in row[i:i + ROW_TERMS])
                    for i in range(0, len(row), ROW_TERMS)]
            start = "0" if exact else "0.0"
            if sums:
                start = sums[0] if exact else f"0.0 + {sums[0]}"
            body.append(f"{name} = {start}")
            body.extend(f"{name} = {name} + {more}" for more in sums[1:])
    out = [", ".join(f"{name}{r}" for r in range(len(rows))) for name in "xy"]
    return ("def advance(duals, a, v):\n" + "".join(f"    {line}\n" for line in body)
            + f"    return [{out[0]}], [{out[1]}]\n")


@lru_cache(maxsize=256)
def _advance_kernel(rows, mode: str):
    """The advance of :func:`_advance_source`, compiled once per distinct
    rows and mode, so layouts of equal rows share it."""
    namespace = {}
    exec(compile(_advance_source(rows, mode), f"<relfreq {mode} advance>", "exec"), namespace)
    return namespace["advance"]


# Exact mode folds dense single steps in blocks once the state's scale has
# more bits than BLOCK_FROM_BITS.  A block holds at least BLOCK_MIN_STEPS
# steps and grows until its scale bits reach 1/BLOCK_RATIO of the state's.
BLOCK_FROM_BITS = 8000
BLOCK_MIN_STEPS = 16
BLOCK_RATIO = 4


def _fold(
    state: PassState, runs: Iterable[Tuple[MatrixPair, int]], assignment: Mapping
) -> PassState:
    """Advance ``state`` through ``runs``, (pair, r) for r references to one
    pair, in order: the one fold behind :func:`stream_step` and
    :func:`single_pass`.  It takes the runs as given and scans no chain.

    Each distinct pair object is checked against the state's dimension and
    compiled once per call, in run order; a run of r references to it
    advances through the powers step^(2^i) of the set bits of r.  The
    compiled step is applied by its layout's generated advance, and a
    power or block, a product, by :func:`_advance`.  A step
    multiplies the state's scale by its own and adds its exponent, so
    nothing is divided.

    Advancing an exact state of b bits by a step of a few bits costs O(b),
    so a left fold over n distinct steps costs O(n^2).  Once the state's
    scale has more than ``BLOCK_FROM_BITS`` bits, a single reference to a
    pair whose layout is dense (every row holds all ``dim`` columns, as a
    ladder cell's does) joins a pending block instead.  The block holds at
    least ``BLOCK_MIN_STEPS`` steps and grows until its scale bits reach
    1/``BLOCK_RATIO`` of the state's; it is then multiplied up a balanced
    tree by :func:`_product` and applied in one advance, so the state takes
    O(log n) advances and the fold is sub-quadratic.  Only dense steps
    block: a product of sparse steps, such as k-of-n's bidiagonal ones,
    fills in, so it costs more than the steps it replaces.  Approx mode,
    runs of r > 1 and states below the threshold keep the left fold.  A
    pending block is applied before any other step and at the end of the
    call, so a one-pair call, :func:`stream_step`, applies its step as the
    left fold does.  Integer products are associative, so the exact state
    is the left fold's.
    """
    mode, dim = state.mode, len(state.a_vec)
    a, v, index, exponent = state.a_vec, state.v_vec, state.index, state.exponent
    scale = state.scale
    powers = {}  # id(pair) -> (the layout's advance, [step, step^2, step^4, ...])
    block, block_bits = [], 0  # dense single steps not yet applied, and their scale bits
    for pair, r in runs:
        compiled = powers.get(id(pair))
        if compiled is None:
            if pair.dim != dim:
                raise DimensionMismatchError(
                    f"matrix shape ({pair.dim}, {pair.dim}) incompatible with state dimension {dim}"
                )
            layout = pair.layout
            compiled = powers[id(pair)] = (layout.exact_advance if mode == EXACT else layout.approx_advance,
                                           [_compile(pair, assignment, mode)])
        advance, steps = compiled
        index += r
        if block or scale.bit_length() > BLOCK_FROM_BITS:
            blocked = r == 1 and mode == EXACT and pair.layout.dense
            if blocked:
                block.append(steps[0])
                block_bits += steps[0].scale.bit_length()
            if block and (not blocked or len(block) >= BLOCK_MIN_STEPS
                          and block_bits * BLOCK_RATIO >= scale.bit_length()):
                # exact mode: the product's exponent is 0 and nothing is normalised
                step = _product(block, mode)
                a, v = _advance(step, a, v, mode)
                scale *= step.scale
                block, block_bits = [], 0
            if blocked:
                continue
        for bit in range(r.bit_length()):
            if bit == len(steps):
                steps.append(_mul(steps[-1], steps[-1], mode))
            if r >> bit & 1:
                step = steps[bit]
                a, v = advance(step.duals, a, v) if bit == 0 else _advance(step, a, v, mode)
                scale *= step.scale
                exponent += step.exponent
                if mode != EXACT:
                    a, v, k = _normalise(a, v)
                    exponent += k
    if block:
        step = _product(block, mode)
        a, v = _advance(step, a, v, mode)
        scale *= step.scale
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

    The log10 fields (None unless positive) hold also where an approx A or
    nu is below the double range and reads 0.
    """

    availability: Scalar
    unavailability: Scalar
    frequency: Scalar
    failure_rate: Optional[Scalar]
    mode: str
    family: str = ""
    size: int = 0
    log10_availability: Optional[float] = None
    log10_frequency: Optional[float] = None

    def as_dict(self, rate_unit: str = "absolute") -> dict:
        """The report as JSON-ready blocks.  Frequencies are ``"per"``
        ``rate_unit``: absolute (per unit time), or ``"mu"`` when they are
        multiples of a reference repair rate; A and U are dimensionless, so
        theirs read ``"absolute"``."""
        def block(value, per=rate_unit):
            try:
                decimal = float(value)
            except OverflowError:  # beyond the double range, which IEEE rounding makes infinite
                decimal = inf if value > 0 else -inf
            entry = {"decimal": repr(decimal)}
            if self.mode == EXACT:
                entry["rational"] = rational_str(value)
            entry["per"] = per
            return entry

        out = {
            "availability": block(self.availability, "absolute"),
            "unavailability": block(self.unavailability, "absolute"),
            "frequency": block(self.frequency),
            "log10_availability": self.log10_availability,
            "log10_frequency": self.log10_frequency,
            "meta": {
                "family": self.family,
                "mode": self.mode,
                "size": self.size,
                "rate_unit": rate_unit,
            },
        }
        if self.failure_rate is not None:
            out["failure_rate"] = block(self.failure_rate)
        return out


def _ldexp(x: float, e: int) -> float:
    """x * 2**e, or an infinity of x's sign beyond the double range."""
    try:
        return ldexp(x, e)
    except OverflowError:
        return copysign(inf, x)


def finalize(system: TransferSystem, state: PassState) -> ReliabilityReport:
    """Project a fully-advanced state with vL and add the offset.
    X = vL.A and Y = vL.V are over D, the product of the two scales.  With
    the offset read as on / od, exact mode builds each result as one
    Fraction of integers: A = (on D + X od) / (od D), U = 1 - A, nu = Y / D.
    In approx mode D is 1; with no offset, log10 A and nu/A = Y/X come from
    the projections, so they stay right when A is below the double range.
    An approx A, U or nu that is not finite is a :class:`ReliabilityError`
    naming A or nu: an infinity is beyond the double range, and a NaN is
    an inf - inf or 0 * inf from a value that overflowed in a compile or
    an advance.  So a NaN A or U has its own message: only an
    intermediate value overflowed, and the exact A may well fit."""
    if state.index != system.size:
        raise ReliabilityError(
            f"state consumed {state.index} matrices, system has {system.size}"
        )
    mode, e = state.mode, state.exponent
    vL, scale = _numbers(system.v_left, mode, "v_left[{}]".format)
    (on,), od = _numbers((system.offset,), mode, lambda i: "offset")
    # each sum starts from the int 0, so an approx zero X or Y is 0.0, not -0.0
    x_s, y_s = (sum(map(mul, vL, vec)) for vec in (state.a_vec, state.v_vec))
    if mode == EXACT:
        den = scale * state.scale
        a_num, a_den = on * den + x_s * od, od * den
        availability, frequency = Fraction(a_num, a_den), Fraction(y_s, den)
        unavailability = 1 - availability  # its denominator is A's: no second gcd
        failure_rate = Fraction(y_s * od, a_num) if a_num else None
        log10_availability = log10_of(availability)
        log10_frequency = log10_of(frequency)
    else:
        offset, x, y = on, _ldexp(x_s, e), _ldexp(y_s, e)  # od is 1
        availability = offset + x
        # not 1 - availability: for offset 1 (k-of-n:G, whose vL is
        # negative) this is -x, with no cancellation
        unavailability = (1 - offset) - x
        if isnan(availability) or isnan(unavailability):
            raise ReliabilityError(
                "availability A is not a number: an intermediate value overflowed; exact mode accepts it")
        if not (isfinite(availability) and isfinite(unavailability)):
            raise ReliabilityError("availability A beyond the double range")
        if not isfinite(y):
            raise ReliabilityError("failure frequency nu beyond the double range; exact mode accepts it")
        frequency = y
        if offset == 0:
            log10_availability = log10_of(x_s, e)
            # + 0.0 makes a zero over a negative X 0.0, not -0.0
            failure_rate = y_s / x_s + 0.0 if x_s != 0 else None
        else:
            log10_availability = log10_of(availability)
            failure_rate = frequency / availability if availability != 0 else None
        log10_frequency = log10_of(y_s, e)
    return ReliabilityReport(
        availability=availability,
        unavailability=unavailability,
        frequency=frequency,
        failure_rate=failure_rate,
        mode=mode,
        family=system.family,
        size=system.size,
        log10_availability=log10_availability,
        log10_frequency=log10_frequency,
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
