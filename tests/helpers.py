"""Shared test fixtures-in-spirit: builders for small reference systems."""

import os
import subprocess
import sys
from collections.abc import Mapping
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import comb, frexp, gcd, lcm, ldexp
from pathlib import Path

from relfreq.core import (
    Component,
    DimensionMismatchError,
    Layout,
    MatrixPair,
    MissingAvailabilityError,
    MissingRateError,
    MultilinearPoly,
    ReliabilityError,
    Step,
    apply_rate_operator,
)
from relfreq.genfunc import RationalGF, UniPoly, transfer_gf
from relfreq.kofn import identical_kofn_spec
from relfreq.ladder import (
    LadderIdenticalParams,
    LadderSpec,
    TERMINAL_T,
    build_ladder,
    distinct_ladder_cells,
    identical_ladder_spec,
)
from relfreq.oracle import oracle_availability
from relfreq.scalars import EXACT, as_exact


def example_7_2_components():
    """5-out-of-8:G worked example: p = 0.90, 0.89, ..., 0.83 with a common
    repair rate; failure rates are the steady-state-consistent multipliers."""
    return tuple(
        Component.steady_state(f"c{i+1}", Fraction(90 - i, 100)) for i in range(8)
    )


def lincon_4_11_components():
    """Consecutive worked example: p from 0.70 to 0.90 in steps of 0.02."""
    return tuple(
        Component.steady_state(f"c{i+1}", Fraction(70 + 2 * i, 100)) for i in range(11)
    )


def distinct_identical_components(n, p, lam):
    """n components c1..cn with distinct ids and one availability p and rate
    lam (0 at p = 1): the distinct-id system that a run of one component,
    :func:`relfreq.kofn.identical_kofn_spec`, must equal."""
    lam = 0 if p == 1 else lam
    return tuple(Component(f"c{i}", p, lam) for i in range(1, n + 1))


def kofn_availability(k, n, p):
    """A_{k,n} of k-out-of-n:G for identical components by the binomial
    sum, with the A_{0,n} = 1 convention."""
    if k < 0 or n < 0:
        raise ReliabilityError("k and n must be nonnegative")
    p = Fraction(p)
    if k == 0:
        return Fraction(1)
    q = 1 - p
    return sum((comb(n, l) * p**l * q ** (n - l) for l in range(k, n + 1)), Fraction(0))


def kofn_g_identical(k, n, p, lam):
    """Exact closed-form (A, nu) of k-out-of-n:G for identical components.

    The frequency is lam * k * C(n,k) * p^k * (1-p)^(n-k); the binomial index
    is k.  At p = 1 the components never fail, so lam is taken as 0, as
    ``identical_kofn_spec`` does; a negative lam is rejected.
    """
    if not (1 <= k <= n):
        raise ReliabilityError(f"k={k} out of range for n={n}")
    p = Fraction(p)
    if not (0 <= p <= 1):
        raise ReliabilityError(f"p={p} outside [0,1]")
    lam = Fraction(lam)
    if lam < 0:
        raise ReliabilityError(f"negative failure rate {lam}")
    if p == 1:
        lam = Fraction(0)
    nu = lam * k * comb(n, k) * p**k * (1 - p) ** (n - k)
    return kofn_availability(k, n, p), nu


def distinct_ladder_spec(p, rho, lam, xi, n, terminal=TERMINAL_T):
    """Ladder with one distinct component id per slot (oracle-compatible)."""
    cells = distinct_ladder_cells(
        n, lambda cid: Component(cid, p, lam), lambda cid: Component(cid, rho, xi)
    )
    return LadderSpec(cells, terminal)


def _term_map(x):
    """A ``{ids: coeff}`` term map, or a number read as the constant term."""
    return x if isinstance(x, Mapping) else {(): x}


def terms_add(*polys):
    """The sum of term maps or numbers, as a term map keyed by sorted id
    tuples with no zero term: the polynomial ring's sum, written out as
    the expected side of a test."""
    acc = {}
    for poly in map(_term_map, polys):
        for ids, c in poly.items():
            key = tuple(sorted(set(ids)))
            acc[key] = acc.get(key, 0) + c
    return {key: c for key, c in acc.items() if c}


def terms_mul(*polys):
    """The product of term maps or numbers, as :func:`terms_add` gives a
    sum: a term of the product reads the union of its factors' ids, so
    p_i p_i = p_i."""
    acc = {(): 1}
    for poly in map(_term_map, polys):
        acc = terms_add(*({tuple(ids1) + tuple(ids2): c1 * c2}
                          for ids1, c1 in acc.items() for ids2, c2 in poly.items()))
    return acc


def reference_from_entries(dim, entries):
    """A pair from ``(row, col, poly)`` triples as ``MatrixPair.from_entries``
    built it from polynomial objects: each poly, a :class:`MultilinearPoly`,
    a ``{ids: coeff}`` map or a constant, read as a polynomial object,
    zeros dropped, equal polynomials sharing one slot, and the variables
    the sorted ids the polynomials read.  The pair built from term tuples
    must equal it, and raise the same error for the same bad entry."""
    rows = [[] for _ in range(dim)]
    slots = {}  # polynomial -> slot, in slot order
    for r, c, poly in entries:
        if not 0 <= r < dim:
            raise DimensionMismatchError(f"entry ({r}, {c}) outside a {dim}x{dim} matrix")
        if not isinstance(poly, MultilinearPoly):
            poly = MultilinearPoly(_term_map(poly))
        if not poly.is_zero():
            rows[r].append((c, slots.setdefault(poly, len(slots))))
    ids = sorted({cid for poly in slots for key in poly.terms for cid in key})
    var = {cid: j for j, cid in enumerate(ids)}
    terms = [[(tuple(map(var.__getitem__, key)), c) for key, c in poly.terms.items()] for poly in slots]
    return MatrixPair(Layout(dim, map(sorted, rows), terms), ids)


def dense_fraction_fold(system, assignment):
    """(A, nu) by a plain dense Fraction fold, one matrix product per step."""
    avail = {cid: p for cid, (p, _) in assignment.items()}
    rates = {cid: lam for cid, (_, lam) in assignment.items()}
    dim = system.dim
    a, v = list(system.v_right), [Fraction(0)] * dim
    for pair in system.pairs:
        m = [[Fraction(0)] * dim for _ in range(dim)]
        mp = [[Fraction(0)] * dim for _ in range(dim)]
        for r, c, e in (e for row in pair.m for e in row):
            m[r][c] = e.evaluate(avail)
            mp[r][c] = apply_rate_operator(e, rates).evaluate(avail)
        a, v = (
            [sum(m[r][j] * a[j] for j in range(dim)) for r in range(dim)],
            [sum(m[r][j] * v[j] + mp[r][j] * a[j] for j in range(dim)) for r in range(dim)],
        )
    x = sum(l * ai for l, ai in zip(system.v_left, a))
    y = sum(l * vi for l, vi in zip(system.v_left, v))
    return system.offset + x, y


def dense_step(step):
    """A compiled or squared step's ``{(row, col): (x, y)}`` over every
    position of its matrix, (0, 0) where its rows hold none, with its scale
    and exponent: equal for two steps that hold the same numbers, whatever
    slots they share."""
    dim = len(step.rows)
    entries = {(r, c): (0, 0) for r in range(dim) for c in range(dim)}
    for r, row in enumerate(step.rows):
        for c, slot in row:
            entries[r, c] = step.duals[slot]
    return entries, step.scale, step.exponent


def reference_normalise(rows):
    """(rows / 2**k, k) with the largest magnitude in [0.5, 1), or k = 0 when
    all are zero: each entry divided by its own ``ldexp`` call, the
    rescaling that the one power-of-two multiply of the fold must equal."""
    k = frexp(max(abs(x) for row in rows for x in row))[1]
    return [[ldexp(x, -k) for x in row] for row in rows], k


def reference_mul(s2, s1, mode):
    """``s1`` then ``s2`` as one step, by nested rows: dim x dim lists of
    values and eps parts, rescaled entry by entry in approx mode, then
    rebuilt row by row with a slot for each position whose x or y is
    nonzero.  The fold's one-pass dual product must equal it bit for bit."""
    rows2, duals2, rows1, duals1 = s2.rows, s2.duals, s1.rows, s1.duals
    dim = len(rows2)
    xs = [[0] * dim for _ in range(dim)]
    ys = [[0] * dim for _ in range(dim)]
    for x_out, y_out, row in zip(xs, ys, rows2):
        for j, s in row:
            x1, y1 = duals2[s]
            for c, t in rows1[j]:
                x2, y2 = duals1[t]
                x_out[c] += x1 * x2
                y_out[c] += x1 * y2 + y1 * x2
    shift = 0
    if mode != EXACT:
        normalised, shift = reference_normalise(xs + ys)
        xs, ys = normalised[:dim], normalised[dim:]
    rows, duals = [], []
    for x_row, y_row in zip(xs, ys):
        row = []
        for c, (x, y) in enumerate(zip(x_row, y_row)):
            if x or y:
                row.append((c, len(duals)))
                duals.append((x, y))
        rows.append(tuple(row))
    return Step(tuple(rows), duals, s2.scale * s1.scale, s2.exponent + s1.exponent + shift)


def reference_advance(step, a, v):
    """(values of M a, values of M v + M' a) with every row sum started from
    the int 0, in either mode: the advance that the fold's must equal,
    bit for bit in exact mode and, in approx mode, with each int zero of an
    empty row read as the 0.0 that the rescale made of it."""
    duals, new_a, new_v = step.duals, [], []
    for row in step.rows:
        x = y = 0
        for j, s in row:
            m, mp = duals[s]
            x += m * a[j]
            y += m * v[j] + mp * a[j]
        new_a.append(x)
        new_v.append(y)
    return new_a, new_v


def custom_config(system):
    """``system`` written as a custom-matrices config: its components with
    explicit rates, one dense matrix per reference to a pair, each entry
    the terms of its polynomial, its vectors and offset, every
    scalar as a rational string."""
    def poly_terms(poly):
        return [[str(c), list(ids)] for ids, c in poly.terms.items()]

    matrices = []
    for pair in system.pairs:
        rows = [[[] for _ in range(pair.dim)] for _ in range(pair.dim)]
        for r, row in enumerate(pair.m):
            for entry in row:
                rows[r][entry.col] = poly_terms(entry.poly)
        matrices.append(rows)
    return {
        "family": "custom-matrices",
        "rate_convention": "explicit",
        "components": [{"id": c.id, "p": str(c.p), "lambda": str(c.lam)} for c in system.components],
        "v_left": [str(x) for x in system.v_left],
        "v_right": [str(x) for x in system.v_right],
        "offset": str(system.offset),
        "matrices": matrices,
    }


def reference_read_value(assignment, cid):
    """(p, lam) of ``cid`` as integer ratios, each value coerced by
    ``as_exact`` in a list comprehension: the compile's read of checked
    values that the one-read ``_read_value`` must equal, errors included."""
    try:
        val = assignment[cid]
    except KeyError:
        raise MissingAvailabilityError(cid) from None
    if not isinstance(val, (tuple, list)) or len(val) != 2:
        raise MissingRateError(cid)
    try:
        p, lam = [as_exact(x).as_integer_ratio() for x in val]
    except (ValueError, OverflowError):  # NaN or infinity
        raise ReliabilityError(f"component {cid!r}: (p, lambda) = {tuple(val)} is not finite") from None
    if not 0 <= p[0] <= p[1]:
        raise ReliabilityError(f"component {cid!r}: p={val[0]} outside [0,1]")
    if lam[0] < 0:
        raise ReliabilityError(f"component {cid!r}: negative failure rate {val[1]}")
    return p, lam


def reference_numbers(ratios, mode):
    """(numbers, scale) for integer ratios: exact integers over the lcm of
    the denominators, or approx floats n / d over 1."""
    if mode != EXACT:
        return [n / d for n, d in ratios], 1
    scale = lcm(*[d for _, d in ratios])
    return [n * (scale // d) for n, d in ratios], scale


def reference_duals(terms, ps, lams, pad, zero):
    """(x, y) for each slot of ``terms``, a term of s variables starting
    from its coefficient times ``pad[s]`` (all ones in approx mode)."""
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


def reference_compile(pair, assignment, mode):
    """A pair's compiled step as ``core._compile`` made it with a read per
    value through :func:`reference_read_value`, lists of ratios per id and
    a pad of P^(d - s) per term of s variables in exact mode, 1 in approx
    mode.  The lean compile must equal it bit for bit, and raise the same
    error for the same bad value.  Approx mode first converts each
    coefficient to a float, so a coefficient beyond the double range is
    named, by the first entry of the first slot that holds the largest,
    before any value is read."""
    layout = pair.layout
    if mode != EXACT:
        try:
            float_terms = [[(float(c), vs) for vs, c in poly] for poly in layout.polys]
        except OverflowError:
            biggest = [max(abs(c) for _, c in poly) for poly in layout.polys]
            first = biggest.index(max(biggest))
            r, col = next((r, col) for r, row in enumerate(layout.rows) for col, slot in row if slot == first)
            raise ReliabilityError(
                f"matrix entry ({r}, {col}): coefficient beyond the double range; exact mode accepts it"
            ) from None
    values = [reference_read_value(assignment, cid) for cid in pair.ids]
    ps, p_den = reference_numbers([p for p, _ in values], mode)
    try:
        lams, lam_den = reference_numbers([lam for _, lam in values], mode)
    except OverflowError:  # approx mode: some rate, and so the largest, is beyond the double range
        rates = {cid: Fraction(*lam) for cid, (_, lam) in zip(pair.ids, values)}
        cid = max(rates, key=rates.get)
        raise ReliabilityError(
            f"component {cid!r}: failure rate beyond the double range; exact mode accepts it"
        ) from None
    degree = max((len(vs) for poly in layout.polys for vs, _ in poly), default=0)
    if mode == EXACT:
        scale = lcm(*[c.denominator for poly in layout.polys for _, c in poly])
        int_terms = [[(c.numerator * (scale // c.denominator), vs) for vs, c in poly] for poly in layout.polys]
        pad = [p_den ** (degree - s) for s in range(degree + 1)]
        duals = reference_duals(int_terms, ps, lams, pad, 0)
        duals = [(x * lam_den, y) for x, y in duals]
        denom = scale * p_den**degree * lam_den
        g = gcd(denom, *(v for xy in duals for v in xy))
        return Step(layout.rows, [(x // g, y // g) for x, y in duals], denom // g, 0)
    return Step(layout.rows, reference_duals(float_terms, ps, lams, (1,) * (degree + 1), 0.0), 1, 0)


def number_bits(x):
    """A number with its type, and a float by its bits: -0.0 differs from
    0.0 and from the integer 0."""
    return (type(x).__name__, x.hex() if isinstance(x, float) else x)


def step_bits(step):
    """rows, duals by :func:`number_bits`, scale and exponent of a step:
    equal for two steps exactly when they are bit-identical."""
    duals = [tuple(map(number_bits, xy)) for xy in step.duals]
    return tuple(step.rows), duals, step.scale, step.exponent


# ---------------------------------------------------------------------------
# Long exact chains by dynamic programmes over dual numbers mod a prime

PRIME = 2**61 - 1


def mod_prime(x):
    """A rational reduced mod :data:`PRIME`: numerator times the inverse of
    the denominator."""
    x = as_exact(x)
    return x.numerator * pow(x.denominator, -1, PRIME) % PRIME


def _dual_up_down(p, lam):
    """(up, down) of one component as duals (value, d/dt) mod the prime,
    with dp/dt = lam p: their tangents sum to the failure frequency."""
    rate = mod_prime(as_exact(lam) * as_exact(p))
    return (mod_prime(p), rate), (mod_prime(1 - as_exact(p)), -rate % PRIME)


def _dual_mul(u, w):
    return u[0] * w[0] % PRIME, (u[0] * w[1] + u[1] * w[0]) % PRIME


def _dual_add(u, w):
    return (u[0] + w[0]) % PRIME, (u[1] + w[1]) % PRIME


def ladder_frontier_mod(cells, terminal_s=False):
    """(A, nu) mod :data:`PRIME` of a ladder to T_n, or S_n, by a frontier
    programme.  ``cells`` holds each cell's (p, lam) for a, b, c, S, T in
    that order; cell 0 is entered with its a perfect and its c absent.

    After cell i the frontier is the set of S_i, T_i that a path of up
    components joins to S_0: S only, T only or both; when neither is,
    nothing to its right is reached.  S_i is reached along a_i from a
    reached S_(i-1), T_i along c_i from a reached T_(i-1), and an up rung
    b_i between two up nodes passes one's reach to the other."""
    frontier = {(True, False): (1, 0)}
    for i, cell in enumerate(cells):
        duals = [_dual_up_down(p, lam) for p, lam in cell]
        if i == 0:
            duals[0], duals[2] = _dual_up_down(1, 0), _dual_up_down(0, 0)
        new = {}
        for ups in product((True, False), repeat=5):
            weight = (1, 0)
            for (up, down), is_up in zip(duals, ups):
                weight = _dual_mul(weight, up if is_up else down)
            a, b, c, s_up, t_up = ups
            for (s_prev, t_prev), w_prev in frontier.items():
                s, t = s_up and a and s_prev, t_up and c and t_prev
                if b and s_up and t_up and (s or t):
                    s = t = True
                if s or t:
                    new[s, t] = _dual_add(new.get((s, t), (0, 0)), _dual_mul(w_prev, weight))
        frontier = new
    total = (0, 0)
    for (s, t), w in frontier.items():
        if s if terminal_s else t:
            total = _dual_add(total, w)
    return total


def kofn_g_count_mod(k, values):
    """(A, nu) mod :data:`PRIME` of k-out-of-n:G over components with
    ``values`` (p, lam), by a programme over the number of working
    components so far, capped at k: A is the weight of reaching k."""
    counts = [(1, 0)] + [(0, 0)] * k
    for p, lam in values:
        up, down = _dual_up_down(p, lam)
        new = [_dual_mul(counts[j], down) for j in range(k)] + [counts[k]]
        for j in range(k):
            new[j + 1] = _dual_add(new[j + 1], _dual_mul(counts[j], up))
        counts = new
    return counts[k]


def lincon_f_run_mod(k, values):
    """(A, nu) mod :data:`PRIME` of consecutive-k-out-of-n:F over
    components with ``values`` (p, lam), by a programme over the trailing
    run of failed components, 0..k-1; a run that reaches k absorbs, as the
    system has failed, so its weight leaves the sum that is A (Chiang &
    Niu, IEEE Trans. Reliability R-30(1), 1981)."""
    runs = [(1, 0)] + [(0, 0)] * (k - 1)
    for p, lam in values:
        up, down = _dual_up_down(p, lam)
        live = (0, 0)
        for weight in runs:
            live = _dual_add(live, weight)
        runs = [_dual_mul(live, up)] + [_dual_mul(weight, down) for weight in runs[:-1]]
    total = (0, 0)
    for weight in runs:
        total = _dual_add(total, weight)
    return total


def corrupt_system(system):
    """``system`` with 1/97 added to its first pair's slot 0, at every
    position that holds it, so that its results disagree with the oracle."""
    pair = tuple(system.pairs)[0]
    layout = pair.layout
    polys = (layout.polys[0] + (((), Fraction(1, 97)),),) + layout.polys[1:]
    bad = MatrixPair(Layout(layout.dim, layout.rows, polys), pair.ids)
    return replace(system, pairs=(bad,) + tuple(system.pairs)[1:])


def oracle_pivotal(sf, probs, pivot):
    """(A with p_pivot := 1, A with p_pivot := 0), both from the oracle."""
    return tuple(oracle_availability(sf, {**probs, pivot: p}) for p in (1, 0))


def state_columns(n):
    """(columns, full) over all 2**n states of n ids, by definition: bit x
    of column j is set when bit j of state x is, and full has every bit."""
    columns = [sum(1 << x for x in range(1 << n) if x >> j & 1) for j in range(n)]
    return columns, (1 << (1 << n)) - 1


def up_states(sf):
    """The up states of ``sf`` from one call over all its states: bit x is
    set when state x is up."""
    return sf.fn(*state_columns(len(sf.ids)))


def is_monotone(sf) -> bool:
    """Coherence, bitwise: raising id j from down to up takes state x to
    x + 2**j, so the up states with j down, shifted by 2**j, must be up."""
    columns, full = state_columns(len(sf.ids))
    u = sf.fn(columns, full)
    return all(((u & ~c) << (1 << j)) & ~u == 0 for j, c in enumerate(columns))


# ---------------------------------------------------------------------------
# Generating functions: the paper's published forms, and the ones that
# transfer_gf derives from the builders' matrices

P = UniPoly([0, 1])
Q = UniPoly([1, -1])


def in_z(*coeffs):
    """The polynomial in z whose coefficients, lowest power first, are the
    rationals or polynomials in p ``coeffs``."""
    return UniPoly([c if isinstance(c, UniPoly) else UniPoly([c]) for c in coeffs])


def gf_kofn_g(k):
    """The paper's sum_n A_{k,n} z^n for k-out-of-n:G with identical
    components: p^k z^k / ((1-z)(1-(1-p)z)^k); k = 0 gives 1/(1-z)."""
    return RationalGF(in_z(*[0] * k, P**k), in_z(1, -1) * in_z(1, -Q) ** k)


def gf_kofn_g_freq(k, lam=1):
    """The paper's frequency series of k-out-of-n:G with identical
    components: lam k p^k z^k / (1-(1-p)z)^(k+1)."""
    return RationalGF(in_z(*[0] * k, P**k * (lam * k)), in_z(1, -Q) ** (k + 1))


def gf_lincon_f(k):
    """The paper's consecutive-k-out-of-n:F availability series:
    (1 - (1-p)^k z^k) / (1 - z + p (1-p)^k z^(k+1))."""
    return RationalGF(in_z(1, *[0] * (k - 1), -(Q**k)), in_z(1, -1, *[0] * (k - 1), P * Q**k))


def family_gf(build, k):
    """transfer_gf of the family of ``build`` (a k-of-n builder) over n: the
    run of one component's pair, its component read as p."""
    system = build(identical_kofn_spec(k, k, Fraction(1, 2), 1))
    return transfer_gf(system, {c.id: P for c in system.components})


LADDER_EDGES = ("b0", "a", "b", "c")


def ladder_gf(rho, terminal):
    """transfer_gf of the identical ladder over its n interior cells, with
    every edge read as p and every node as the rational ``rho``."""
    params = LadderIdenticalParams(Fraction(1, 2), rho, 0, 0, 1)
    system = build_ladder(identical_ladder_spec(params, terminal))
    return transfer_gf(system, {c.id: P if c.id in LADDER_EDGES else c.p for c in system.components})


ROOT = Path(__file__).resolve().parent.parent


def run_python(*args, **env):
    """Run a fresh interpreter on ``args`` with the package's sources importable
    and ``env`` added to the environment."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, **env, PYTHONPATH=path),
        timeout=120,
    )
