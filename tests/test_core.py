"""Core engine: polynomial arithmetic, the rate operator, and the pass."""

import dataclasses
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relfreq.core
from relfreq.cli import build_from_config
from relfreq.core import (
    Component,
    DimensionMismatchError,
    Entry,
    Layout,
    MatrixPair,
    MissingAvailabilityError,
    MissingRateError,
    MultilinearPoly,
    PassState,
    ReliabilityError,
    Runs,
    TransferSystem,
    apply_rate_operator,
    finalize,
    initial_state,
    log10_of,
    single_pass,
    stream_step,
)
from relfreq.kofn import KofnSpec, build_kofn_g, build_lincon_f
from relfreq.ladder import (
    LadderIdenticalParams,
    LadderSpec,
    build_ladder,
    identical_ladder_spec,
)
from relfreq.oracle import (
    StructureFunction,
    oracle_availability,
    oracle_frequency,
    truth_table_structure,
)

from helpers import dense_fraction_fold, distinct_ladder_spec, run_python

P1 = MultilinearPoly.variable("p1")
P2 = MultilinearPoly.variable("p2")
P3 = MultilinearPoly.variable("p3")
X0 = {(0,): 1}  # p_0, the polynomial of a layout's variable 0


def rationals(max_num=30, max_den=9):
    return st.builds(
        F, st.integers(-max_num, max_num), st.integers(1, max_den)
    )


def small_polys():
    ids = st.frozensets(st.sampled_from(["p1", "p2", "p3", "p4"]), max_size=3)
    term = st.tuples(ids, rationals())
    return st.builds(
        lambda terms: MultilinearPoly(dict(terms)), st.lists(term, max_size=5)
    )


class TestRateOperator:
    def test_worked_matrix_element(self):
        # p1 + p2 p3 - p1 p2 p3
        poly = P1 + P2 * P3 - P1 * P2 * P3
        rates = {"p1": F(2), "p2": F(3), "p3": F(5)}
        image = apply_rate_operator(poly, rates)
        expected = (
            2 * P1 + (3 + 5) * (P2 * P3) - (2 + 3 + 5) * (P1 * P2 * P3)
        )
        assert image == expected

    def test_constant_annihilated(self):
        assert apply_rate_operator(MultilinearPoly.one(), {}).is_zero()

    def test_perfect_component_zero_rate(self):
        assert apply_rate_operator(P1, {"p1": F(0)}).is_zero()

    def test_missing_rate_names_component(self):
        with pytest.raises(MissingRateError, match="p2"):
            apply_rate_operator(P1 * P2, {"p1": F(1)})

    @given(small_polys(), small_polys(), rationals(), rationals())
    def test_linearity(self, f, g, a, b):
        rates = {f"p{i}": F(i, 2) for i in range(1, 5)}
        lhs = apply_rate_operator(a * f + b * g, rates)
        rhs = a * apply_rate_operator(f, rates) + b * apply_rate_operator(g, rates)
        assert lhs == rhs

    @given(small_polys(), small_polys())
    def test_product_rule(self, f, g):
        # the rule concerns adjacent matrices in a chain, which never share
        # components; disjointness is established by renaming g's variables
        g = MultilinearPoly(
            {frozenset(i + "'" for i in ids): c for ids, c in g.terms.items()}
        )
        rates = {f"p{i}": F(i, 3) for i in range(1, 5)}
        rates.update({f"p{i}'": F(i, 7) for i in range(1, 5)})
        lhs = apply_rate_operator(f * g, rates)
        rhs = apply_rate_operator(f, rates) * g + f * apply_rate_operator(g, rates)
        assert lhs == rhs

    def test_matrix_level_product_rule(self):
        P4, P5, P6 = (MultilinearPoly.variable(f"p{i}") for i in (4, 5, 6))
        rates = {f"p{i}": F(i, 2) for i in range(1, 7)}
        m = ((0, 0, P1), (0, 1, P2), (1, 0, P3), (1, 1, MultilinearPoly.one() - P1))
        n = ((0, 0, P5 * P6), (0, 1, MultilinearPoly.one()), (1, 0, P4), (1, 1, P5))

        def rows(entries):
            return MatrixPair.from_entries(2, entries).m

        def prime(x):
            return rows((r, c, apply_rate_operator(e, rates)) for row in x for r, c, e in row)

        def matmul(x, y):
            acc = {}
            for r, i, e in (e for row in x for e in row):
                for j, c, f in (f for row in y for f in row):
                    if i == j:
                        acc[r, c] = acc.get((r, c), MultilinearPoly.zero()) + e * f
            return rows((r, c, e) for (r, c), e in acc.items())

        def as_dict(*matrices):
            acc = {}
            for r, c, e in (e for x in matrices for row in x for e in row):
                acc[r, c] = acc.get((r, c), MultilinearPoly.zero()) + e
            return {pos: e for pos, e in acc.items() if not e.is_zero()}

        m, n = rows(m), rows(n)
        mp, np_ = prime(m), prime(n)
        lhs = as_dict(prime(matmul(m, n)))
        rhs = as_dict(matmul(mp, n), matmul(m, np_))
        assert lhs == rhs


class TestPolynomials:
    def test_boolean_lattice_values(self):
        poly = P1 + P2 * P3 - P1 * P2 * P3  # 1-of-{1} OR (2 AND 3)
        for b1 in (0, 1):
            for b2 in (0, 1):
                for b3 in (0, 1):
                    val = poly.evaluate({"p1": F(b1), "p2": F(b2), "p3": F(b3)})
                    assert val == (b1 or (b2 and b3))

    def test_idempotent_multiplication(self):
        assert P1 * P1 == P1

    @pytest.mark.parametrize(
        "items, terms",
        [([(("a",), 1), (("a",), 2)], {("a",): 3}),
         ([(("a", "b"), 1), (("b", "a"), 2)], {("a", "b"): 3}),
         ([((), 1), (("a",), -1), ((), F(1, 97))], {(): F(98, 97), ("a",): -1}),
         ([(("a",), 1), (("a", "b"), 1), (("b", "a"), -1)], {("a",): 1})],
        ids=["repeated-key", "reordered-key", "appended-constant", "cancelled-key"],
    )
    def test_items_equal_their_summed_map(self, items, terms):
        # every item counts: a key given twice is summed, not overwritten
        assert MultilinearPoly(items) == MultilinearPoly(terms)
        var = {"a": 0, "b": 1}.__getitem__

        def layout(pairs):
            return Layout(1, (((0, 0),),), ([(tuple(map(var, key)), c) for key, c in pairs],))

        assert layout(items) == layout(terms.items())

    def test_no_zero_terms_stored(self):
        assert not (P1 - P1).terms

    @given(small_polys())
    def test_exact_vs_float_evaluation(self, poly):
        assign = {f"p{i}": F(i, 5) for i in range(1, 5)}
        exact = poly.evaluate(assign, "exact")
        approx = poly.evaluate({k: float(v) for k, v in assign.items()}, "approx")
        assert approx == pytest.approx(float(exact), abs=1e-12)


class TestMatrixPair:
    def test_from_entries_drops_zeros_and_sorts_rows(self):
        pair = MatrixPair.from_entries(2, [(1, 1, P2), (0, 1, MultilinearPoly.zero()), (1, 0, P1)])
        assert pair.m == ((), (Entry(1, 0, P1), Entry(1, 1, P2)))

    @pytest.mark.parametrize(
        "entries", [[(0, 2, P1)], [(-1, 0, P1)], [(0, 0, P1), (0, 0, P2)]],
        ids=["column", "row", "twice"],
    )
    def test_from_entries_rejects_bad_positions(self, entries):
        with pytest.raises(ReliabilityError):
            MatrixPair.from_entries(2, entries)

    @pytest.mark.parametrize(
        "dim, rows, polys",
        [(2, ((),), ()), (2, ((), (), ()), ()), (0, (), ()),
         (2, (((0, 0),), ((2, 0),)), (X0,)), (2, (((-1, 0),), ()), (X0,)),
         (2, (((1, 0), (0, 0)), ()), (X0,)), (2, (((0, 0), (0, 1)), ()), (X0, X0)),
         (2, (((0, 1),), ()), (X0,)), (2, (((0, -1),), ()), (X0,)), (2, (((0, 0),), ()), (X0, X0))],
        ids=["too-few-rows", "too-many-rows", "empty", "column", "negative-column",
             "unsorted", "repeated-column", "slot", "negative-slot", "unused-slot"],
    )
    def test_layout_rejects_malformed_rows(self, dim, rows, polys):
        with pytest.raises(ReliabilityError):
            Layout(dim, rows, polys)

    @pytest.mark.parametrize(
        "dim, polys, ids",
        [(3, (X0,), ("x",)), (2, ({(0, 1): 1},), ("x",)), (2, (X0,), ("x", "y")),
         (2, ({},), ("x",)), (2, ({(0,): 1, (0, 1): 0},), ("x", "y")),
         (2, ({(1,): 1},), ("y",))],
        ids=["dim", "too-few-polys", "too-many-polys", "zero", "zero-coefficient",
             "unread-variable"],
    )
    def test_pair_rejects_polys_that_do_not_fit_its_layout(self, dim, polys, ids):
        # a pair binds one id to each variable of a valid layout, and a
        # system takes only pairs of its own dimension
        with pytest.raises(ReliabilityError):
            layout = Layout(dim, [((r, 0),) for r in range(dim)], polys)
            TransferSystem((1, 0), (MatrixPair(layout, ids),), (1, 0))

    @pytest.mark.parametrize(
        "second", [P1, MultilinearPoly({("p1",): 1}), {("p1",): 1}],
        ids=["same-object", "equal-object", "term-map"],
    )
    def test_from_entries_gives_each_polynomial_value_one_slot(self, second):
        pair = MatrixPair.from_entries(2, [(0, 0, P1), (1, 1, second), (0, 1, P2)])
        assert pair.polys == (P1, P2)
        assert pair.ids == ("p1", "p2")
        assert pair.layout == Layout(2, (((0, 0), (1, 1)), ((1, 0),)), ({(0,): 1}, {(1,): 1}))

    def test_bind_reads_an_id_named_twice_once(self):
        # p_i p_i = p_i: a binding that names one id twice is not a power;
        # the constructor rewrites it over the distinct ids in sorted order
        layout = Layout(1, (((0, 0),),), ({(0, 1): 1, (): 1},))
        pair = MatrixPair(layout, ("x", "x"))
        assert pair.ids == ("x",) and pair.polys == (MultilinearPoly({("x",): 1, (): 1}),)
        assert pair.layout == Layout(1, (((0, 0),),), ({(0,): 1, (): 1},))
        assert MatrixPair(layout, ("y", "x")).ids == ("y", "x")
        with pytest.raises(ReliabilityError):
            MatrixPair(layout, ("x",))
        # two slots that become equal share one; variables follow the ids' order
        layout = Layout(2, (((0, 0), (1, 1)), ((1, 2),)),
                        ({(0, 1): 1}, {(2,): 1}, {(0,): 1, (1,): -1}))
        pair = MatrixPair(layout, ("y", "y", "x"))
        assert pair.ids == ("x", "y")
        assert pair.layout == Layout(2, (((0, 0), (1, 1)), ()), ({(1,): 1}, {(0,): 1}))


def one_component_system(p=F(3, 4), lam=F(2)):
    comp = Component("x", p, lam)
    pair = MatrixPair.from_entries(1, [(0, 0, MultilinearPoly.variable("x"))])
    return TransferSystem(
        v_left=(F(1),), pairs=(pair,), v_right=(F(1),), components=(comp,)
    )


def random_three_component_system(rng_seed=7):
    """3 matrices of 2x2 random multilinear entries in one variable each,
    arranged so the product is the availability of an explicit truth table."""
    # series system of three components, written as 1x1 matrices
    comps = tuple(Component(f"x{i}", F(i, i + 1), F(1, i)) for i in (1, 2, 3))
    pairs = tuple(
        MatrixPair.from_entries(1, [(0, 0, MultilinearPoly.variable(c.id))])
        for c in comps
    )
    return TransferSystem(
        v_left=(F(1),), pairs=pairs, v_right=(F(1),), components=comps
    )


class TestSinglePass:
    def test_single_component(self):
        report = single_pass(one_component_system())
        assert report.availability == F(3, 4)
        assert report.frequency == F(2) * F(3, 4)
        assert report.failure_rate == F(2)

    def test_series_three_components_vs_oracle(self):
        system = random_three_component_system()
        ids = tuple(c.id for c in system.components)
        sf = StructureFunction(ids, lambda x: x == (1 << len(ids)) - 1)
        probs = {c.id: c.p for c in system.components}
        rates = {c.id: c.lam for c in system.components}
        report = single_pass(system)
        assert report.availability == oracle_availability(sf, probs)
        assert report.frequency == oracle_frequency(sf, probs, rates)

    def test_unavailability_complement_exact(self):
        report = single_pass(one_component_system())
        assert report.availability + report.unavailability == 1

    def test_rate_times_availability_is_frequency(self):
        report = single_pass(one_component_system())
        assert report.failure_rate * report.availability == report.frequency

    def test_probability_out_of_range_rejected(self):
        system = one_component_system()
        with pytest.raises(ReliabilityError):
            single_pass(system, {"x": (F(3, 2), F(1))})

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    @pytest.mark.parametrize("p", [F(1) + F(1, 10**30), -F(1, 10**40)])
    def test_probability_just_out_of_range_rejected(self, p, mode):
        # both round to a float in [0, 1]: the check must be made exactly
        with pytest.raises(ReliabilityError):
            single_pass(one_component_system(), {"x": (p, F(1))}, mode)

    def test_dimension_mismatch_rejected(self):
        pair = MatrixPair.from_entries(2, ())
        with pytest.raises(DimensionMismatchError):
            TransferSystem(v_left=(F(1),), pairs=(pair,), v_right=(F(1),))

    def test_rate_scaling_scales_frequency_only(self):
        system = one_component_system()
        base = single_pass(system)
        scaled = single_pass(system, {"x": (F(3, 4), F(2) * 7)})
        assert scaled.availability == base.availability
        assert scaled.frequency == 7 * base.frequency

    def test_zero_rates_zero_frequency(self):
        system = one_component_system()
        report = single_pass(system, {"x": (F(3, 4), F(0))})
        assert report.frequency == 0

    def test_exact_vs_approx_within_1e9(self):
        system = random_three_component_system()
        exact = single_pass(system, mode="exact")
        approx = single_pass(system, mode="approx")
        assert approx.availability == pytest.approx(
            float(exact.availability), rel=1e-9
        )
        assert approx.frequency == pytest.approx(float(exact.frequency), rel=1e-9)


class TestMPrimeOnlyInThePass:
    def test_builders_apply_no_rate_operator(self, monkeypatch):
        def refuse(poly, rates):
            raise AssertionError("rate operator applied while building")

        monkeypatch.setattr(relfreq.core, "apply_rate_operator", refuse)
        comps = tuple(Component(f"c{i}", F(i, 5), F(i)) for i in (1, 2, 3, 4))
        build_kofn_g(KofnSpec(2, comps))
        build_lincon_f(KofnSpec(2, comps))
        build_ladder(distinct_ladder_spec(F(2, 3), F(4, 5), F(3), F(1, 2), 2))
        build_from_config(
            {
                "family": "custom-matrices",
                "components": [{"id": "x", "p": "3/4", "lambda": "2"}],
                "v_left": ["1"],
                "v_right": ["1"],
                "matrices": [[[[["1", ["x"]]]]]],
            }
        )

    def test_pass_evaluates_no_polynomial_objects(self, monkeypatch):
        comps = tuple(Component(f"c{i}", F(i, 5), F(i)) for i in (1, 2, 3, 4))
        systems = [
            build_kofn_g(KofnSpec(2, comps)),
            build_lincon_f(KofnSpec(2, comps)),
            build_ladder(distinct_ladder_spec(F(2, 3), F(4, 5), F(3), F(1, 2), 2)),
            build_from_config(
                {
                    "family": "custom-matrices",
                    "components": [{"id": "x", "p": "3/4", "lambda": "2"}],
                    "v_left": ["1", "0"],
                    "v_right": ["1", "1"],
                    "matrices": [[[[["1", ["x"]]], []], [[["1", []], ["-1", ["x"]]], []]]],
                }
            ),
        ]
        expected = [single_pass(system) for system in systems]

        def refuse(*args):
            raise AssertionError("the pass evaluated a polynomial object")

        monkeypatch.setattr(relfreq.core.MultilinearPoly, "evaluate", refuse)
        monkeypatch.setattr(relfreq.core, "apply_rate_operator", refuse)
        for system, report in zip(systems, expected):
            assert single_pass(system) == report
            single_pass(system, mode="approx")
            state = initial_state(system)
            for pair in system.pairs:
                state = stream_step(state, pair, system.default_assignment())
            assert finalize(system, state) == report

    def test_missing_component_is_named(self):
        system = one_component_system()
        with pytest.raises(MissingAvailabilityError, match="'x'"):
            single_pass(system, {"y": (F(1, 2), F(1))})

    def test_plain_availability_needs_a_rate(self):
        system = one_component_system()
        with pytest.raises(MissingRateError, match="'x'"):
            single_pass(system, {"x": F(3, 4)})
        with pytest.raises(MissingRateError, match="'x'"):
            stream_step(initial_state(system), system.pairs[0], {"x": F(3, 4)})

    def test_list_and_tuple_assignments_agree(self):
        # {"x": [p, lam]} is what an assignment decoded from JSON looks like
        system = one_component_system()
        assert single_pass(system, {"x": [F(3, 4), F(2)]}) == single_pass(
            system, {"x": (F(3, 4), F(2))}
        )
        for value in ([F(3, 4)], (F(3, 4), F(2), F(1))):
            with pytest.raises(MissingRateError, match="'x'"):
                single_pass(system, {"x": value})


def test_log10_of_holds_beyond_the_double_range():
    assert log10_of(F(1, 10**400)) == -400
    assert log10_of(F(3, 4 * 2**5000)) == pytest.approx(math.log10(0.75) - 5000 * math.log10(2))
    assert log10_of(0.5, -3000) == pytest.approx(-3001 * math.log10(2))
    assert -1e-12 < log10_of(1 - F(1, 10**12)) < 0  # no cancellation near 1
    assert log10_of(F(0)) is None and log10_of(-1.0) is None


class TestStreamStep:
    def test_first_step_matches_initialization(self):
        system = one_component_system()
        state = initial_state(system)
        assignment = system.default_assignment()
        stepped = stream_step(state, system.pairs[0], assignment)
        # A_1 = M_1 vR, V_1 = M'_1 vR
        assert tuple(F(x, stepped.scale) for x in stepped.a_vec) == (F(3, 4),)
        assert tuple(F(x, stepped.scale) for x in stepped.v_vec) == (F(2) * F(3, 4),)
        assert stepped.index == 1

    def test_fold_equals_single_pass(self):
        system = random_three_component_system()
        assignment = system.default_assignment()
        state = initial_state(system)
        for pair in system.pairs:
            state = stream_step(state, pair, assignment)
        report = finalize(system, state)
        direct = single_pass(system)
        assert report.availability == direct.availability
        assert report.frequency == direct.frequency

    def test_exact_fold_makes_no_fraction(self, monkeypatch):
        # the exact state stays integers over one scale between
        # initial_state and finalize, so a streamed step divides nothing
        system = build_ladder(identical_ladder_spec(
            LadderIdenticalParams(F(9, 10), F(99, 100), F(1, 3), F(1, 7), 50)))
        assignment = system.default_assignment()
        state = initial_state(system)
        made = []
        new = F.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", staticmethod(counting))
        for pair in system.pairs:
            state = stream_step(state, pair, assignment)
        monkeypatch.undo()
        assert len(made) == 0, f"{len(made)} Fractions made in {len(system.pairs)} steps"
        report = finalize(system, state)
        direct = single_pass(system)
        assert (report.availability, report.frequency) == (direct.availability, direct.frequency)

    def test_state_scale_is_at_least_one(self):
        for scale in (0, -3):
            with pytest.raises(ReliabilityError, match="scale"):
                PassState((1,), (0,), 0, scale=scale)
        assert PassState((1,), (0,), 0).scale == 1

    def test_zero_matrix_annihilates(self):
        system = one_component_system()
        state = initial_state(system)
        stepped = stream_step(state, MatrixPair.from_entries(1, ()), {"x": (F(1, 2), F(1))})
        assert stepped.a_vec == (0,)
        assert stepped.v_vec == (0,)

    def test_dimension_mismatch(self):
        system = one_component_system()
        state = initial_state(system)
        with pytest.raises(DimensionMismatchError):
            stream_step(state, MatrixPair.from_entries(3, ()), {})

    def test_reads_only_the_ids_of_its_pair(self):
        # a whole-system assignment is checked per step only where the step
        # reads it, so a streamed fold stays linear in its length
        system = one_component_system()
        state, pair = initial_state(system), system.pairs[0]
        clean = stream_step(state, pair, {"x": (F(3, 4), F(2))})
        for other in (F(1, 2), (F(3, 2), F(1)), [F(1, 2)]):
            assert stream_step(state, pair, {"x": (F(3, 4), F(2)), "z": other}) == clean


FOLD_IDS = ("x1", "x2", "x3")


def mixed_rationals():
    return st.builds(F, st.integers(-6, 6), st.integers(1, 12))


@st.composite
def fold_cases(draw):
    """(system, assignment) with mixed denominators, sign -1 and an offset,
    zero matrices, shared pair objects, runs of up to 64 consecutive
    references to one pair object, positions of a pair sharing one
    polynomial object, terms of up to three ids, and zero rates.  The rate
    4/11 has a denominator coprime to every p, rate and coefficient
    denominator, and terms of different sizes in one pair need padding to
    a common denominator in the integer compile."""
    dim = draw(st.integers(1, 3))
    rates = st.sampled_from([F(0), F(1, 3), F(2), F(5, 7), F(4, 11)])
    poly = st.builds(
        lambda terms: MultilinearPoly(dict(terms)),
        st.lists(
            st.tuples(st.frozensets(st.sampled_from(FOLD_IDS), max_size=3), mixed_rationals()),
            max_size=2,
        ),
    )
    position = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    pool = [MatrixPair.from_entries(dim, ())]
    for _ in range(draw(st.integers(1, 3))):
        positions = draw(st.lists(position, unique=True, max_size=dim * dim))
        polys = draw(st.lists(poly, min_size=1, max_size=3))
        entries = [(r, c, draw(st.sampled_from(polys))) for r, c in positions]
        pool.append(MatrixPair.from_entries(dim, entries))
    runs = st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 2) | st.integers(1, 64))
    pairs = [pool[i] for i, r in draw(st.lists(runs, max_size=6)) for _ in range(r)]
    vector = st.lists(mixed_rationals(), min_size=dim, max_size=dim)
    system = TransferSystem(
        v_left=draw(vector),
        pairs=pairs,
        v_right=draw(vector),
        offset=draw(mixed_rationals()),
        sign=draw(st.sampled_from([1, -1])),
    )
    p = st.builds(F, st.integers(0, 7), st.just(7)) | st.sampled_from([F(1, 3), F(9, 10)])
    return system, {cid: (draw(p), draw(rates)) for cid in FOLD_IDS}


def _vanishing_entry_case():
    """1 - x1 at x1 = (1, 2) is 0, with rate-operator image -2 at (0, 0)."""
    x1 = MultilinearPoly.variable("x1")
    pairs = [
        MatrixPair.from_entries(2, [(0, 0, 1 - x1), (0, 1, x1), (1, 1, x1)]),
        MatrixPair.from_entries(2, [(0, 0, MultilinearPoly.variable("x2")), (1, 0, x1)]),
    ]
    system = TransferSystem(v_left=(F(1), F(1)), pairs=pairs, v_right=(F(1), F(2)))
    return system, {"x1": (F(1), F(2)), "x2": (F(1, 3), F(5, 7)), "x3": (F(0), F(0))}


class TestFractionFreeFold:
    @given(fold_cases())
    @example(_vanishing_entry_case())
    @settings(max_examples=150, deadline=None)
    def test_single_pass_equals_dense_fraction_fold(self, case):
        system, assignment = case
        report = single_pass(system, assignment)
        assert (report.availability, report.frequency) == dense_fraction_fold(system, assignment)
        assert isinstance(report.availability, F) and isinstance(report.frequency, F)

    @given(fold_cases())
    @settings(max_examples=60, deadline=None)
    def test_compiled_scale_is_the_lcm_of_the_denominators(self, case):
        # the integer compile must reduce its common denominator, or every
        # step of the fold carries larger integers than it needs
        system, assignment = case
        for pair in {id(pair): pair for pair in system.pairs}.values():
            step = relfreq.core._compile(pair, assignment, "exact")
            values = [F(v, step.scale) for row in step.rows for _, x, y in row for v in (x, y)]
            assert step.scale == math.lcm(*(v.denominator for v in values))

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    @given(case=fold_cases())
    @settings(max_examples=60, deadline=None)
    def test_stream_step_fold_equals_single_pass(self, mode, case):
        system, assignment = case
        state = initial_state(system, mode)
        for pair in system.pairs:
            state = stream_step(state, pair, assignment)
        folded = finalize(system, state)
        if mode == "approx":
            # a powered run rounds differently from r single steps, so the
            # approx fold is compared with a chain of distinct equal pairs,
            # which has no runs
            system = dataclasses.replace(
                system, pairs=[dataclasses.replace(pair) for pair in system.pairs]
            )
        direct = single_pass(system, assignment, mode)
        assert (folded.availability, folded.frequency) == (direct.availability, direct.frequency)


BINDING_IDS = ("x1", "x2", "x3", "x4")


@st.composite
def bound_layouts(draw):
    """(layout, ids, assignment): a layout of dimension 1-3 whose slots hold
    polynomials of up to three terms over up to four variables, each term
    reading up to three, with every variable read; ``ids`` binds them to
    distinct ids in any order."""
    dim = draw(st.integers(1, 3))
    read = st.frozensets(st.integers(0, 3), max_size=3)
    poly = st.dictionaries(read, mixed_rationals().filter(bool), min_size=1, max_size=3)
    cells = draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
                          unique=True, min_size=1, max_size=dim * dim))
    polys = draw(st.lists(poly, min_size=1, max_size=len(cells)))
    extra = st.integers(0, len(polys) - 1)
    slots = draw(st.permutations(list(range(len(polys))) + draw(
        st.lists(extra, min_size=len(cells) - len(polys), max_size=len(cells) - len(polys)))))
    rows = [sorted((c, slot) for (r, c), slot in zip(cells, slots) if r == row) for row in range(dim)]
    # renumber the variables the terms read to 0..v-1, so that none is unread
    var = {j: i for i, j in enumerate(sorted(set().union(*(key for poly in polys for key in poly))))}
    polys = [{frozenset(map(var.get, key)): c for key, c in poly.items()} for poly in polys]
    ids = draw(st.permutations(BINDING_IDS))[:len(var)]
    p = st.builds(F, st.integers(0, 7), st.just(7)) | st.sampled_from([F(1, 3), F(9, 10)])
    rates = st.sampled_from([F(0), F(1, 3), F(2), F(5, 7), F(4, 11)])
    assignment = {cid: (draw(p), draw(rates)) for cid in BINDING_IDS}
    return Layout(dim, rows, polys), tuple(ids), assignment


class TestBoundLayouts:
    @given(bound_layouts())
    @settings(max_examples=150, deadline=None)
    def test_compile_equals_compile_of_the_derived_entries(self, case):
        layout, ids, assignment = case
        pair, sorted_pair = MatrixPair(layout, ids), MatrixPair(layout, sorted(ids))
        # from_entries numbers the variables in sorted id order, so an approx
        # product multiplies its factors in the same order only when the
        # binding is sorted; exact mode takes any binding
        compile_ = relfreq.core._compile
        for mode, bound in (("exact", pair), ("approx", sorted_pair)):
            twin = MatrixPair.from_entries(layout.dim, [e for row in bound.m for e in row])
            assert compile_(bound, assignment, mode) == compile_(twin, assignment, mode)
        vector = tuple(F(i + 1, 3) for i in range(layout.dim))
        system = TransferSystem(vector, [pair, sorted_pair, pair, pair], vector[::-1], offset=F(1, 2))
        report = single_pass(system, assignment)
        assert (report.availability, report.frequency) == dense_fraction_fold(system, assignment)

    def test_builders_make_no_polynomial_objects(self, monkeypatch):
        made = []
        init = MultilinearPoly.__init__

        def counting(self, terms=()):
            made.append(terms)
            init(self, terms)

        monkeypatch.setattr(MultilinearPoly, "__init__", counting)
        ladder = build_ladder(distinct_ladder_spec(F(2, 3), F(4, 5), F(3), F(1, 2), 50))
        comps = tuple(Component(f"c{i}", F(i, 61), F(i, 7)) for i in range(1, 61))
        kofn = build_kofn_g(KofnSpec(20, comps))
        lincon = build_lincon_f(KofnSpec(20, comps))
        assert made == []
        assert (len(ladder.pairs), len(kofn.pairs), len(lincon.pairs)) == (51, 60, 60)


def slices():
    bound = st.none() | st.integers(-12, 12)
    return st.builds(slice, bound, bound, st.none() | st.integers(-3, 3).filter(bool))


class TestRuns:
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)), max_size=8), slices())
    @settings(max_examples=200, deadline=None)
    def test_reads_like_the_tuple_it_stands_for(self, run_list, sl):
        # three objects, so adjacent runs of one object are common
        pool = [object() for _ in range(3)]
        runs = [(pool[i], r) for i, r in run_list]
        expanded = tuple(item for item, r in runs for _ in range(r))
        seq = Runs.from_runs(runs)
        assert len(seq) == len(expanded)
        assert tuple(seq) == expanded
        assert all(seq[i] is expanded[i] for i in range(-len(expanded), len(expanded)))
        for i in (len(expanded), -len(expanded) - 1):
            with pytest.raises(IndexError):
                seq[i]
        assert seq[sl] == expanded[sl] and isinstance(seq[sl], tuple)
        # the stored runs are the maximal ones, however the sequence was given
        assert seq.runs == Runs(expanded).runs == Runs(seq).runs
        assert seq == Runs(expanded) and hash(seq) == hash(Runs(expanded))
        assert all(r > 0 for _, r in seq.runs)
        assert all(a is not b for (a, _), (b, _) in zip(seq.runs, seq.runs[1:]))

    def test_negative_run_rejected(self):
        with pytest.raises(ValueError):
            Runs.from_runs([(object(), -1)])

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_shared_ladder_reports_as_the_expanded_chain(self, mode):
        params = LadderIdenticalParams(F(9, 10), F(99, 100), F(1), F(1, 2), 3000)
        spec = identical_ladder_spec(params)
        assert len(spec.cells.runs) == 2
        expanded = LadderSpec(tuple(spec.cells), spec.terminal)
        reports = [single_pass(build_ladder(s), mode=mode).as_dict() for s in (spec, expanded)]
        assert json.dumps(reports[0]) == json.dumps(reports[1])

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_kofn_system_reports_as_its_pair_tuple(self, mode):
        comps = tuple(Component(f"c{i}", F(80 + i, 100), F(1 + i, 10)) for i in range(12))
        system = build_kofn_g(KofnSpec(5, comps))
        pairs = tuple(system.pairs)
        from_runs = dataclasses.replace(system, pairs=Runs.from_runs((pair, 1) for pair in pairs))
        from_tuple = dataclasses.replace(system, pairs=pairs)
        reports = [single_pass(s, mode=mode).as_dict() for s in (from_runs, from_tuple)]
        assert json.dumps(reports[0]) == json.dumps(reports[1])


HETEROGENEOUS_LADDER = """
from fractions import Fraction as F
from relfreq.core import Component, single_pass
from relfreq.ladder import LadderCell, LadderSpec, build_ladder, entry_cell

def comp(name, i):
    return Component(f"{name}{i}", F(900 + (37 * i + ord(name)) % 97, 1000), F(1 + i % 7, 10))

cells = [entry_cell(comp("b", 0), comp("S", 0), comp("T", 0))]
cells += [LadderCell(*(comp(x, i) for x in "abcST"), index=i) for i in range(1, 81)]
report = single_pass(build_ladder(LadderSpec(tuple(cells))), mode="approx")
print(repr(report.availability), repr(report.frequency))
"""


def test_approx_results_do_not_depend_on_the_hash_seed():
    outputs = set()
    for seed in ("1", "2", "3"):
        proc = run_python("-c", HETEROGENEOUS_LADDER, PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs


class TestComponent:
    def test_steady_state_balance(self):
        c = Component.steady_state("x", F(9, 10), mu=F(3))
        assert c.lam * c.p == c.mu * (1 - c.p)

    def test_perfect_component_requires_zero_rate(self):
        with pytest.raises(ReliabilityError):
            Component("x", 1, F(1))

    def test_probability_bounds(self):
        with pytest.raises(ReliabilityError):
            Component("x", F(11, 10))

    @pytest.mark.parametrize(
        "args, message",
        [(("x", F(11, 10)), "component 'x': p=11/10 outside [0,1]"),
         (("x", F(-1, 10)), "component 'x': p=-1/10 outside [0,1]"),
         (("x", F(1, 2), F(-1, 3)), "component 'x': negative failure rate"),
         (("x", F(1, 2), F(1), F(-2)), "component 'x': negative repair rate"),
         (("x", 1, F(1, 3)), "component 'x': a perfect component must have zero failure rate")],
        ids=["above-one", "below-zero", "negative-rate", "negative-repair", "perfect-with-rate"],
    )
    def test_rejections_name_the_component_and_the_fault(self, args, message):
        with pytest.raises(ReliabilityError) as info:
            Component(*args)
        assert str(info.value) == message
