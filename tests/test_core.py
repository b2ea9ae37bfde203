"""Core engine: term tuples, the rate operator, and the pass."""

import dataclasses
import json
import math
import random
import re
from fractions import Fraction as F
from functools import lru_cache
from itertools import chain, combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relfreq.core
import relfreq.kofn
import relfreq.ladder
from relfreq.cli import build_from_config, main
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
    LadderCell,
    LadderIdenticalParams,
    LadderSpec,
    build_ladder,
    distinct_ladder_cells,
    entry_cell,
    identical_ladder_spec,
    ladder_structure,
)
from relfreq.oracle import (
    StructureFunction,
    kofn_g_structure,
    lincon_f_structure,
    oracle_availability,
    oracle_frequency,
    truth_table_structure,
)
from relfreq.scalars import rational_str
from relfreq.verify import run_equivalence_trials

from helpers import (
    dense_fraction_fold,
    dense_step,
    distinct_ladder_spec,
    kofn_g_count_mod,
    kofn_g_identical,
    ladder_frontier_mod,
    lincon_f_run_mod,
    mod_prime,
    number_bits,
    reference_advance,
    reference_compile,
    reference_from_entries,
    reference_mul,
    reference_normalise,
    run_python,
    step_bits,
    terms_add,
    terms_mul,
)

P1, P2, P3 = ({(f"p{i}",): 1} for i in (1, 2, 3))  # term maps of single variables
X0 = {(0,): 1}  # p_0, the polynomial of a layout's variable 0


def rationals(max_num=30, max_den=9):
    return st.builds(
        F, st.integers(-max_num, max_num), st.integers(1, max_den)
    )


def small_polys():
    ids = st.frozensets(st.sampled_from(["p1", "p2", "p3", "p4"]), max_size=3)
    term = st.tuples(ids, rationals())
    return st.builds(dict, st.lists(term, max_size=5))


def rate_image(poly, rates):
    """The rate operator's image of a term map, as a term map."""
    return apply_rate_operator(MultilinearPoly(poly), rates).terms


@st.composite
def term_entries(draw):
    """(dim, entries): term maps at distinct positions of a dim x dim
    matrix, over keys that may repeat an id or be the constant key, with
    zero coefficients, so that zero maps, one map at two positions and
    constant-only maps are all drawn."""
    dim = draw(st.integers(1, 3))
    key = st.lists(st.sampled_from(["a", "b", "c"]), max_size=3).map(tuple)
    polys = draw(st.lists(st.dictionaries(key, rationals(3, 3), max_size=3), min_size=1, max_size=3))
    position = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    positions = draw(st.lists(position, unique=True, max_size=dim * dim))
    return dim, [(r, c, draw(st.sampled_from(polys))) for r, c in positions]


class TestRateOperator:
    def test_worked_matrix_element(self):
        # p1 + p2 p3 - p1 p2 p3
        poly = MultilinearPoly({("p1",): 1, ("p2", "p3"): 1, ("p1", "p2", "p3"): -1})
        rates = {"p1": F(2), "p2": F(3), "p3": F(5)}
        image = apply_rate_operator(poly, rates)
        expected = {("p1",): 2, ("p2", "p3"): 3 + 5, ("p1", "p2", "p3"): -(2 + 3 + 5)}
        assert image == MultilinearPoly(expected)

    def test_constant_annihilated(self):
        assert apply_rate_operator(MultilinearPoly({(): 1}), {}).is_zero()

    def test_perfect_component_zero_rate(self):
        assert apply_rate_operator(MultilinearPoly(P1), {"p1": F(0)}).is_zero()

    def test_missing_rate_names_component(self):
        with pytest.raises(MissingRateError, match="p2"):
            apply_rate_operator(MultilinearPoly({("p1", "p2"): 1}), {"p1": F(1)})

    @given(small_polys(), small_polys(), rationals(), rationals())
    def test_linearity(self, f, g, a, b):
        rates = {f"p{i}": F(i, 2) for i in range(1, 5)}
        lhs = rate_image(terms_add(terms_mul(a, f), terms_mul(b, g)), rates)
        rhs = terms_add(terms_mul(a, rate_image(f, rates)), terms_mul(b, rate_image(g, rates)))
        assert lhs == rhs

    @given(small_polys(), small_polys())
    def test_product_rule(self, f, g):
        # the rule concerns adjacent matrices in a chain, which never share
        # components; disjointness is established by renaming g's variables
        g = {frozenset(i + "'" for i in ids): c for ids, c in g.items()}
        rates = {f"p{i}": F(i, 3) for i in range(1, 5)}
        rates.update({f"p{i}'": F(i, 7) for i in range(1, 5)})
        lhs = rate_image(terms_mul(f, g), rates)
        rhs = terms_add(terms_mul(rate_image(f, rates), g), terms_mul(f, rate_image(g, rates)))
        assert lhs == rhs

    def test_matrix_level_product_rule(self):
        P4, P5 = {("p4",): 1}, {("p5",): 1}
        rates = {f"p{i}": F(i, 2) for i in range(1, 7)}
        m = ((0, 0, P1), (0, 1, P2), (1, 0, P3), (1, 1, {(): 1, ("p1",): -1}))
        n = ((0, 0, {("p5", "p6"): 1}), (0, 1, {(): 1}), (1, 0, P4), (1, 1, P5))

        def rows(entries):
            return MatrixPair.from_entries(2, entries).m

        def prime(x):
            return rows((r, c, rate_image(e.terms, rates)) for row in x for r, c, e in row)

        def matmul(x, y):
            acc = {}
            for r, i, e in (e for row in x for e in row):
                for j, c, f in (f for row in y for f in row):
                    if i == j:
                        acc[r, c] = terms_add(acc.get((r, c), {}), terms_mul(e.terms, f.terms))
            return rows((r, c, e) for (r, c), e in acc.items())

        def as_dict(*matrices):
            acc = {}
            for r, c, e in (e for x in matrices for row in x for e in row):
                acc[r, c] = terms_add(acc.get((r, c), {}), e.terms)
            return {pos: e for pos, e in acc.items() if e}

        m, n = rows(m), rows(n)
        mp, np_ = prime(m), prime(n)
        lhs = as_dict(prime(matmul(m, n)))
        rhs = as_dict(matmul(mp, n), matmul(m, np_))
        assert lhs == rhs


class TestPolynomials:
    def test_boolean_lattice_values(self):
        # 1-of-{1} OR (2 AND 3)
        poly = MultilinearPoly({("p1",): 1, ("p2", "p3"): 1, ("p1", "p2", "p3"): -1})
        for b1 in (0, 1):
            for b2 in (0, 1):
                for b3 in (0, 1):
                    val = poly.evaluate({"p1": F(b1), "p2": F(b2), "p3": F(b3)})
                    assert val == (b1 or (b2 and b3))

    def test_idempotent_multiplication(self):
        # p1 p1 = p1, in a term's key and through a pair that binds p1 twice
        assert MultilinearPoly({("p1", "p1"): 1}) == MultilinearPoly(P1)
        layout = Layout(1, (((0, 0),),), ({(0, 1): 1},))
        assert MatrixPair(layout, ("p1", "p1")).m[0][0].poly == MultilinearPoly(P1)

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
        assert not MultilinearPoly([(("p1",), 1), (("p1",), -1)]).terms
        assert MultilinearPoly({("p1",): 1, ("p1", "p1"): -1, (): 0}).is_zero()

    @given(small_polys())
    def test_exact_vs_float_evaluation(self, poly):
        poly = MultilinearPoly(poly)
        assign = {f"p{i}": F(i, 5) for i in range(1, 5)}
        exact = poly.evaluate(assign, "exact")
        approx = poly.evaluate({k: float(v) for k, v in assign.items()}, "approx")
        assert approx == pytest.approx(float(exact), abs=1e-12)


class TestMatrixPair:
    def test_from_entries_drops_zeros_and_sorts_rows(self):
        pair = MatrixPair.from_entries(2, [(1, 1, P2), (0, 1, {}), (1, 0, P1)])
        assert pair.m == ((), (Entry(1, 0, MultilinearPoly(P1)), Entry(1, 1, MultilinearPoly(P2))))

    @pytest.mark.parametrize(
        "entries", [[(0, 2, P1)], [(-1, 0, P1)], [(0, 0, P1), (0, 0, P2)], [(2, 0, P1)]],
        ids=["column", "row", "twice", "row-past-the-end"],
    )
    def test_from_entries_rejects_bad_positions(self, entries):
        # with the exception type of the pair built from polynomial objects
        errors = []
        for build in (MatrixPair.from_entries, reference_from_entries):
            with pytest.raises(ReliabilityError) as info:
                build(2, entries)
            errors.append(type(info.value))
        assert errors[0] is errors[1]

    @given(term_entries())
    @example((2, [(0, 0, {}), (0, 1, {("a", "a"): 1, ("b",): 2}), (1, 0, {(): F(1, 3)}),
                  (1, 1, {("b",): 2, ("a",): 1})]))
    @example((2, [(0, 0, {("a", "b"): 1, ("b", "a"): -1}), (0, 1, P1), (1, 1, P1), (1, 0, {(): 0})]))
    @settings(max_examples=200, deadline=None)
    def test_from_entries_equals_the_reference(self, case):
        # the pair built from term tuples is the one built from polynomial objects
        dim, entries = case
        pair, reference = MatrixPair.from_entries(dim, entries), reference_from_entries(dim, entries)
        assert (pair.layout.rows, pair.layout.polys, pair.ids) == (
            reference.layout.rows, reference.layout.polys, reference.ids)

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
        "second", [P1, {("p1",): 1}, [(("p1",), 1)], {("p1", "p1"): F(1, 2), ("p1",): F(1, 2)}],
        ids=["same-object", "term-map", "items", "repeated-id"],
    )
    def test_from_entries_gives_each_polynomial_value_one_slot(self, second):
        pair = MatrixPair.from_entries(2, [(0, 0, P1), (1, 1, second), (0, 1, P2)])
        assert pair.ids == ("p1", "p2")
        assert pair.layout == Layout(2, (((0, 0), (1, 1)), ((1, 0),)), ({(0,): 1}, {(1,): 1}))

    def test_bind_reads_an_id_named_twice_once(self):
        # p_i p_i = p_i: a binding that names one id twice is not a power;
        # the constructor rewrites it over the distinct ids in sorted order
        layout = Layout(1, (((0, 0),),), ({(0, 1): 1, (): 1},))
        pair = MatrixPair(layout, ("x", "x"))
        assert pair.ids == ("x",) and pair.m == ((Entry(0, 0, MultilinearPoly({("x",): 1, (): 1})),),)
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
    pair = MatrixPair.from_entries(1, [(0, 0, {("x",): 1})])
    return TransferSystem(
        v_left=(F(1),), pairs=(pair,), v_right=(F(1),), components=(comp,)
    )


def random_three_component_system(rng_seed=7):
    """3 matrices of 2x2 random multilinear entries in one variable each,
    arranged so the product is the availability of an explicit truth table."""
    # series system of three components, written as 1x1 matrices
    comps = tuple(Component(f"x{i}", F(i, i + 1), F(1, i)) for i in (1, 2, 3))
    pairs = tuple(
        MatrixPair.from_entries(1, [(0, 0, {(c.id,): 1})])
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
        sf = StructureFunction(ids, lambda cols, full: cols[0] & cols[1] & cols[2])
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

    def test_a_system_with_no_states_rejected(self):
        # with empty vectors vL . vR = 0, so A would read offset = 1 in either mode
        with pytest.raises(DimensionMismatchError, match="at least one state"):
            TransferSystem((), [], (), offset=1)

    def test_vectors_of_different_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError, match="v_left and v_right dimensions differ"):
            TransferSystem((1, 0), (), (1,))

    def test_finalize_before_the_last_matrix_rejected(self):
        comps = [Component(f"c{i}", F(1, 2), F(1)) for i in range(3)]
        system = build_kofn_g(KofnSpec(2, comps))
        with pytest.raises(ReliabilityError, match="state consumed 0 matrices, system has 3"):
            finalize(system, initial_state(system))

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
            stream_step(initial_state(system), tuple(system.pairs)[0], {"x": F(3, 4)})

    def test_list_and_tuple_assignments_agree(self):
        # {"x": [p, lam]} is what an assignment decoded from JSON looks like
        system = one_component_system()
        assert single_pass(system, {"x": [F(3, 4), F(2)]}) == single_pass(
            system, {"x": (F(3, 4), F(2))}
        )
        for value in ([F(3, 4)], (F(3, 4), F(2), F(1))):
            with pytest.raises(MissingRateError, match="'x'"):
                single_pass(system, {"x": value})


class TestReadValue:
    KOFN = build_kofn_g(KofnSpec(2, tuple(Component(f"c{i}", F(9, 10), F(1)) for i in range(3))))

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    @pytest.mark.parametrize("p, lam", [(F(9, 10), -1), (F(9, 10), F(-1, 3)), (F(9, 10), math.nan),
                                        (F(9, 10), math.inf), (math.nan, F(1)), (math.inf, F(1))],
                             ids=["negative-int", "negative-fraction", "nan-rate", "infinite-rate",
                                  "nan-p", "infinite-p"])
    def test_a_negative_or_non_finite_value_is_rejected_by_name(self, mode, p, lam):
        assignment = {cid: (F(9, 10), F(1)) for cid in ("c0", "c1", "c2")}
        assignment["c1"] = (p, lam)
        with pytest.raises(ReliabilityError, match="component 'c1'"):
            single_pass(self.KOFN, assignment, mode)
        with pytest.raises(ReliabilityError, match="component 'c1'"):
            stream_step(initial_state(self.KOFN, mode), tuple(self.KOFN.pairs)[1], assignment)

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    @pytest.mark.parametrize("p, lam, fault", [
        ("1/0", F(1), "not a number"), (F(1, 2), "1/0", "not a number"), (None, F(1), "not a number"),
        (F(1, 2), None, "not a number"), ("abc", F(1), "not a number"), ("abc", math.nan, "not a number"),
        ("nan", F(1), "not finite"), (F(1, 2), "-inf", "not finite"), (math.inf, "abc", "not finite"),
    ], ids=["zero-denominator-p", "zero-denominator-rate", "none-p", "none-rate", "unparsable-p",
            "unparsable-p-nan-rate", "nan-string-p", "infinite-string-rate", "infinite-p-unparsable-rate"])
    def test_a_value_that_is_not_a_number_is_rejected_by_name(self, mode, p, lam, fault):
        # the first value that does not read decides the message
        assignment = {cid: (F(9, 10), F(1)) for cid in ("c0", "c1", "c2")}
        assignment["c1"] = (p, lam)
        message = f"component 'c1': (p, lambda) = {(p, lam)} is {fault}"
        with pytest.raises(ReliabilityError) as info:
            single_pass(self.KOFN, assignment, mode)
        assert str(info.value) == message
        with pytest.raises(ReliabilityError) as info:
            stream_step(initial_state(self.KOFN, mode), tuple(self.KOFN.pairs)[1], assignment)
        assert str(info.value) == message

    def test_a_rate_at_p_one_is_accepted(self):
        # the pass is pure algebra; only Component and the oracle reject it
        system = one_component_system()
        assert single_pass(system, {"x": (F(1), F(2))}).availability == 1

    @given(st.builds(F, st.integers(0, 10**400), st.integers(1, 10**400)).filter(lambda x: x < 10**300)
           | st.builds(lambda n, d, e: F(n, d << e), st.integers(0, 2**60), st.integers(1, 10**20),
                       st.integers(1000, 1200))
           | st.integers(0, 10**300)
           | st.floats(0, 1e300).filter(lambda x: math.copysign(1, x) > 0),
           st.builds(lambda n, d: F(n, n + d), st.integers(0, 10**400), st.integers(1, 10**400))
           | st.just(F(1))
           | st.builds(lambda n, e: F(n, (n + 1) << e), st.integers(1, 2**60), st.integers(1000, 1200))
           | st.floats(0, 1).filter(lambda x: math.copysign(1, x) > 0))
    @settings(max_examples=300, deadline=None)
    def test_approx_read_is_float_bit_for_bit(self, x, p):
        # -0.0 is left out: it reads as 0.0.  The slot p_x holds the dual
        # (p, p * lambda), from the p and the rate as the compile read them.
        pair = MatrixPair.from_entries(1, [(0, 0, {("x",): 1})])
        step = relfreq.core._compile(pair, {"x": (p, x)}, "approx")
        assert step.scale == 1 and step.duals[0][0].hex() == float(p).hex()
        assert step.duals[0][1].hex() == (float(p) * float(x)).hex()


class TestRateBeyondTheDoubleRange:
    SYSTEM = build_kofn_g(KofnSpec(1, (Component("small", F(1, 2), F(1)),
                                       Component("big", F(1, 3), 10**400))))

    def test_approx_pass_names_the_component(self):
        with pytest.raises(ReliabilityError, match="component 'big': failure rate beyond the double range"):
            single_pass(self.SYSTEM, mode="approx")
        with pytest.raises(ReliabilityError, match="component 'big'"):
            stream_step(initial_state(self.SYSTEM, "approx"), tuple(self.SYSTEM.pairs)[1],
                        self.SYSTEM.default_assignment())

    def test_exact_report_reads_an_infinite_decimal(self):
        report = single_pass(self.SYSTEM)
        assert report.frequency > 10**399
        blocks = report.as_dict()
        assert blocks["frequency"]["decimal"] == blocks["failure_rate"]["decimal"] == "inf"
        assert blocks["frequency"]["rational"] == rational_str(report.frequency)
        nu = report.frequency
        assert blocks["log10_frequency"] == pytest.approx(math.log10(nu.numerator) - math.log10(nu.denominator))
        assert blocks["availability"]["decimal"] == repr(float(report.availability))

    @pytest.mark.parametrize("where, message", [
        ("coefficient", "matrix entry (0, 1): coefficient beyond the double range"),
        ("v_left", "v_left[1] beyond the double range"),
        ("v_right", "v_right[1] beyond the double range"),
        ("offset", "offset beyond the double range"),
    ])
    def test_approx_pass_names_a_system_value_beyond_the_range(self, where, message):
        big = F(-(10**400))
        pair = MatrixPair.from_entries(2, [(0, 0, {("x",): 1}), (1, 1, {(): 1}),
                                           (0, 1, {("x",): big if where == "coefficient" else 1})])
        system = TransferSystem((F(1), big if where == "v_left" else F(0)), [pair],
                                (F(1), big if where == "v_right" else F(1)),
                                offset=big if where == "offset" else F(0))
        assignment = {"x": (F(1, 2), F(1))}
        with pytest.raises(ReliabilityError, match=rf"^{re.escape(message)}; exact mode accepts it$"):
            single_pass(system, assignment, "approx")
        assert single_pass(system, assignment).availability < -(10**399)

    def test_exact_pass_converts_no_coefficient_to_float(self):
        pair = MatrixPair.from_entries(1, [(0, 0, {("x",): 10**400})])
        report = single_pass(TransferSystem((F(1),), [pair], (F(1),)), {"x": (F(1, 2), F(1))})
        assert report.availability == F(10**400, 2)
        assert "exact_kernel" in vars(pair.layout) and "approx_kernel" not in vars(pair.layout)

    def test_a_negative_value_beyond_the_range_reads_minus_infinity(self):
        pair = MatrixPair.from_entries(1, [(0, 0, {("x",): 1})])
        report = single_pass(TransferSystem((F(-(10**400)),), [pair], (F(1),)), {"x": (F(1, 2), F(1))})
        assert report.as_dict()["availability"]["decimal"] == "-inf"


NAN_CASES = {
    # x y - z w / 2 at p = 1/2: each term's rate image 2e308 p p overflows,
    # and their difference, nu = 2.5e307, reads inf - inf
    "frequency": (TransferSystem((1,), [MatrixPair.from_entries(
        1, [(0, 0, {("x", "y"): 1, ("z", "w"): F(-1, 2)})])], (1,)),
        {cid: (F(1, 2), 10**308) for cid in "wxyz"}, "failure frequency nu beyond the double range",
        F(1, 8), F(5, 2) * 10**307),
    # column 0 of M is +-1e308 (x + y), which overflows at p = 9/10, and vL
    # sums the two: A = 0 reads inf - inf, which no double range bounds
    "availability": (TransferSystem((1, 1), [MatrixPair.from_entries(2, [
        (0, 0, {("x",): 10**308, ("y",): 10**308}), (1, 0, {("x",): -(10**308), ("y",): -(10**308)})])],
        (1, 0)), {cid: (F(9, 10), 1) for cid in "xy"},
        "availability A is not a number: an intermediate value overflowed", 0, 0),
}


@pytest.mark.parametrize("system, assignment, message, availability, frequency",
                         NAN_CASES.values(), ids=NAN_CASES.keys())
def test_approx_pass_never_reports_a_nan(system, assignment, message, availability, frequency):
    with pytest.raises(ReliabilityError, match=f"^{re.escape(message)}; exact mode accepts it$"):
        single_pass(system, assignment, "approx")
    report = single_pass(system, assignment)
    assert (report.availability, report.frequency) == (availability, frequency)


def test_log10_of_holds_beyond_the_double_range():
    assert log10_of(F(1, 10**400)) == -400
    assert log10_of(F(3, 4 * 2**5000)) == pytest.approx(math.log10(0.75) - 5000 * math.log10(2))
    assert log10_of(0.5, -3000) == pytest.approx(-3001 * math.log10(2))
    assert -1e-12 < log10_of(1 - F(1, 10**12)) < 0  # no cancellation near 1
    assert log10_of(F(0)) is None and log10_of(-1.0) is None


def test_approx_zero_frequency_is_positive_zero():
    # with no offset, nu is Y = vL . V, summed from the int 0, so a zero nu
    # is 0.0; nu/A is Y / X, and X = vL . A is negative for vL = 1, where
    # 0.0 / X is -0.0 unless finalize adds 0.0
    pair = MatrixPair.from_entries(1, [(0, 0, {(): F(-1, 2)})])
    for lead in (-1, 1):
        report = single_pass(TransferSystem((F(lead),), [pair], (F(1),)), {}, "approx")
        assert report.availability == -lead / 2
        assert math.copysign(1, report.frequency) == math.copysign(1, report.failure_rate) == 1


class TestStreamStep:
    def test_first_step_matches_initialization(self):
        system = one_component_system()
        state = initial_state(system)
        assignment = system.default_assignment()
        stepped = stream_step(state, tuple(system.pairs)[0], assignment)
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
        assert len(made) == 0, f"{len(made)} Fractions made in {system.pairs.length} steps"
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
        state, pair = initial_state(system), tuple(system.pairs)[0]
        clean = stream_step(state, pair, {"x": (F(3, 4), F(2))})
        for other in (F(1, 2), (F(3, 2), F(1)), [F(1, 2)]):
            assert stream_step(state, pair, {"x": (F(3, 4), F(2)), "z": other}) == clean


FOLD_IDS = ("x1", "x2", "x3")


def mixed_rationals():
    return st.builds(F, st.integers(-6, 6), st.integers(1, 12))


@st.composite
def fold_cases(draw):
    """(system, assignment) with mixed denominators, vL negated half the
    time, an offset, zero matrices, shared pair objects, runs of up to 64
    consecutive references to one pair object, positions of a pair sharing
    one polynomial object, terms of up to three ids, and zero rates.  The rate
    4/11 has a denominator coprime to every p, rate and coefficient
    denominator, and terms of different sizes in one pair need padding to
    a common denominator in the integer compile."""
    dim = draw(st.integers(1, 3))
    rates = st.sampled_from([F(0), F(1, 3), F(2), F(5, 7), F(4, 11)])
    poly = st.builds(
        dict,
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
    # the sign, drawn last, multiplies vL
    v_left, v_right, offset = draw(vector), draw(vector), draw(mixed_rationals())
    sign = draw(st.sampled_from([1, -1]))
    system = TransferSystem(v_left=[sign * x for x in v_left], pairs=pairs, v_right=v_right, offset=offset)
    p = st.builds(F, st.integers(0, 7), st.just(7)) | st.sampled_from([F(1, 3), F(9, 10)])
    return system, {cid: (draw(p), draw(rates)) for cid in FOLD_IDS}


def _vanishing_entry_case():
    """1 - x1 at x1 = (1, 2) is 0, with rate-operator image -2 at (0, 0)."""
    x1 = {("x1",): 1}
    pairs = [
        MatrixPair.from_entries(2, [(0, 0, {(): 1, ("x1",): -1}), (0, 1, x1), (1, 1, x1)]),
        MatrixPair.from_entries(2, [(0, 0, {("x2",): 1}), (1, 0, x1)]),
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
            entries, scale, _ = dense_step(relfreq.core._compile(pair, assignment, "exact"))
            values = [F(v, scale) for xy in entries.values() for v in xy]
            assert scale == math.lcm(*(v.denominator for v in values))

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


def streamed(system, assignment, mode="exact"):
    """The state after a chain of ``stream_step`` calls, one per reference:
    the left fold, which never applies steps in blocks."""
    state = initial_state(system, mode)
    for pair in system.pairs:
        state = stream_step(state, pair, assignment)
    return state


def block_lengths(system, assignment, mode="exact"):
    """(report, the length of each block the exact fold applied) of
    ``single_pass``."""
    product, lengths = relfreq.core._product, []

    def counted(steps, mode):
        lengths.append(len(steps))
        return product(steps, mode)

    with mock.patch.object(relfreq.core, "_product", counted):
        report = single_pass(system, assignment, mode)
    return report, lengths


def seeded_ladder(seed, cells):
    """A ladder of distinct components with p in 0.80-0.99 and lambda in
    0.1-2.0 drawn from ``Random(seed)``."""
    rng = random.Random(seed)

    def comp(cid):
        return Component(cid, F(rng.randint(80, 99), 100), F(rng.randint(1, 20), 10))

    return build_ladder(LadderSpec(distinct_ladder_cells(cells, comp, comp)))


# p has the prime denominator Q_P, so an entry, a monomial in p plus an
# optional constant, is never zero and has Q_P in its denominator: each
# step adds at least 521 bits to the exact state's scale
Q_P, Q_C = 2**521 - 1, 2**61 - 1
BIG_IDS = ("y1", "y2", "y3")


@st.composite
def dense_chains(draw):
    """(system, assignment): a chain of three dense pairs and a diagonal
    pair, which is sparse for dim > 1, drawn in any order for 16-24 steps,
    then the dense pairs in turn for 24 steps, then any order for up to 16.
    The state crosses ``BLOCK_FROM_BITS`` within the first 16 steps, so the
    middle steps are blocked; elsewhere blocks are cut by sparse steps, by
    runs of r > 1 references to one pair and by the end of the chain."""
    dim = draw(st.integers(1, 3))
    coeff = st.builds(F, st.integers(1, Q_C - 1) | st.integers(1 - Q_C, -1), st.just(Q_C))
    monomial = st.tuples(st.frozensets(st.sampled_from(BIG_IDS), min_size=1, max_size=2), coeff)
    constant = st.lists(st.tuples(st.just(()), coeff), max_size=1)
    poly = st.builds(lambda term, const: [term, *const], monomial, constant)

    def pair(positions):
        return MatrixPair.from_entries(dim, [(r, c, draw(poly)) for r, c in positions])

    pool = [pair((r, c) for r in range(dim) for c in range(dim)) for _ in range(3)]
    pool.append(pair((r, r) for r in range(dim)))
    anywhere = st.integers(0, len(pool) - 1)
    chain = draw(st.lists(anywhere, min_size=16, max_size=24)) + [0, 1, 2] * 8
    chain += draw(st.lists(anywhere, max_size=16))
    vector = st.lists(mixed_rationals(), min_size=dim, max_size=dim)
    system = TransferSystem(v_left=draw(vector), pairs=[pool[i] for i in chain], v_right=draw(vector))
    p = st.builds(F, st.integers(1, Q_P - 1), st.just(Q_P))
    lam = st.builds(F, st.integers(0, 2**64), st.integers(1, 2**64))
    return system, {cid: (draw(p), draw(lam)) for cid in BIG_IDS}


class TestBlockedFold:
    """Past ``BLOCK_FROM_BITS`` the exact fold applies runs of dense single
    steps as one product; every exact integer stays the left fold's."""

    def test_long_ladder_equals_the_streamed_fold(self):
        system = seeded_ladder(25, 500)
        assignment = system.default_assignment()
        report, lengths = block_lengths(system, assignment)
        assert report == finalize(system, streamed(system, assignment))
        # the state passes the threshold, then blocks grow with it
        assert len(lengths) >= 2 and min(lengths) >= relfreq.core.BLOCK_MIN_STEPS
        assert lengths[-2] > lengths[0]

    @given(dense_chains())
    @settings(max_examples=30, deadline=None)
    def test_dense_chain_equals_the_streamed_fold(self, case):
        system, assignment = case
        report, lengths = block_lengths(system, assignment)
        assert report == finalize(system, streamed(system, assignment))
        assert max(lengths) >= 8

    def test_short_chains_sparse_steps_and_approx_mode_fold_left(self):
        # a k-of-n pair is bidiagonal: its products fill in, so it never
        # joins a block, however large the state
        comps = [Component(f"c{i}", F(i, Q_P), F(1, Q_C)) for i in range(1, 121)]
        kofn = build_kofn_g(KofnSpec(3, comps))
        ladder = seeded_ladder(25, 500)
        for system, mode in ((kofn, "exact"), (ladder, "approx"), (seeded_ladder(25, 100), "exact")):
            assignment = system.default_assignment()
            report, lengths = block_lengths(system, assignment, mode)
            state = streamed(system, assignment, mode)
            assert lengths == []
            assert report == finalize(system, state)
        assert state.scale.bit_length() < relfreq.core.BLOCK_FROM_BITS  # the 100-cell ladder
        assert streamed(kofn, kofn.default_assignment()).scale.bit_length() > relfreq.core.BLOCK_FROM_BITS


def compiled_steps(system, mode):
    """The compiled step of each distinct pair of ``system``, in run order."""
    assignment = system.default_assignment()
    pairs = {id(pair): pair for pair, _ in system.pairs.runs}.values()
    return [relfreq.core._compile(pair, assignment, mode) for pair in pairs]


def squarings_match(step, mode, count):
    """Square ``step`` ``count`` times, each time checking ``_mul`` against
    the nested-row reference bit for bit; the last square."""
    for _ in range(count):
        square = relfreq.core._mul(step, step, mode)
        assert step_bits(square) == step_bits(reference_mul(step, step, mode))
        step = square
    return step


def normalised_bits(xs, ys, normalise=relfreq.core._normalise):
    """(xs, ys, k) of ``_normalise``, by number bits, beside the same of the
    per-entry ``ldexp`` reference."""
    new_xs, new_ys, k = normalise(xs, ys)
    (ref_xs, ref_ys), ref_k = reference_normalise([list(xs), list(ys)])
    return ([list(map(number_bits, v)) for v in (new_xs, new_ys)] + [k],
            [list(map(number_bits, v)) for v in (ref_xs, ref_ys)] + [ref_k])


def hand_step(rows, duals, mode):
    """A step of the given rows and (x, y) duals, floats in approx mode."""
    convert = float if mode == "approx" else int
    return relfreq.core.Step(rows, [(convert(x), convert(y)) for x, y in duals], 1, 0)


DENSE_2 = (((0, 0), (1, 1)), ((0, 2), (1, 3)))
DIAGONAL_2 = (((0, 0),), ((1, 1),))


class TestOnePassDualProduct:
    """``_mul`` accumulates flat lists, rescales approx products by one
    power-of-two multiply and shares one rows tuple per dimension between
    dense products: every number and slot is that of the nested-row
    product rescaled entry by entry."""

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_dense_ladder_steps_and_their_squarings(self, mode):
        steps = compiled_steps(seeded_ladder(26, 6), mode)
        for s2, s1 in zip(steps[1:], steps):
            assert step_bits(relfreq.core._mul(s2, s1, mode)) == step_bits(reference_mul(s2, s1, mode))
        square = squarings_match(steps[-1], mode, 17 if mode == "approx" else 6)
        assert square.rows is relfreq.core._mul(steps[1], steps[2], mode).rows

    @pytest.mark.parametrize("p", [F(1, 20), F(1, 2), F(9, 10), F(99, 100)])
    def test_sweep_cell_squared_as_a_long_run(self, p):
        # the interior cell of the identical ladder, squared as a run of
        # 10**5 cells squares it, over the sweep's range of p
        system = build_ladder(identical_ladder_spec(LadderIdenticalParams(p, F(99, 100), F(3, 2), F(1, 2), 1)))
        squarings_match(compiled_steps(system, "approx")[-1], "approx", 17)

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    @pytest.mark.parametrize("build", [build_kofn_g, build_lincon_f])
    def test_sparse_kofn_steps_and_their_squarings_fill_in(self, mode, build):
        comps = [Component(f"c{i}", F(70 + 3 * i, 100), F(1 + i, 7)) for i in range(8)]
        steps = compiled_steps(build(KofnSpec(4, comps)), mode)
        products = [steps[0]]
        for step in steps[1:]:
            product = relfreq.core._mul(step, products[-1], mode)
            assert step_bits(product) == step_bits(reference_mul(step, products[-1], mode))
            products.append(product)
        square = squarings_match(steps[0], mode, 5)
        # bidiagonal (k-of-n:G) or not, the products fill in past the
        # steps' own positions
        filled = [sum(map(len, step.rows)) for step in (square, products[-1])]
        assert min(filled) > sum(map(len, steps[0].rows))

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_position_with_zero_value_and_nonzero_eps_keeps_its_slot(self, mode):
        # M2 times the identity: position (0, 1) reads x = 0 and y = 1
        s2 = hand_step(DENSE_2, [(1, 0), (0, 1), (2, 1), (3, 0)], mode)
        s1 = hand_step(DIAGONAL_2, [(1, 0), (1, 0)], mode)
        product = relfreq.core._mul(s2, s1, mode)
        assert step_bits(product) == step_bits(reference_mul(s2, s1, mode))
        assert [col for col, _ in product.rows[0]] == [0, 1]
        assert product.rows is not relfreq.core._mul(s1, s1, mode).rows
        # and a position whose x and y are both 0 has no slot
        s2 = hand_step(DENSE_2, [(1, 0), (0, 0), (2, 1), (3, 0)], mode)
        product = relfreq.core._mul(s2, s1, mode)
        assert step_bits(product) == step_bits(reference_mul(s2, s1, mode))
        assert [col for col, _ in product.rows[0]] == [0]

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_all_zero_product(self, mode):
        s2 = hand_step(DENSE_2, [(0, 0)] * 4, mode)
        product = relfreq.core._mul(s2, s2, mode)
        assert step_bits(product) == step_bits(reference_mul(s2, s2, mode))
        assert product.rows == ((), ()) and product.exponent == 0

    def test_negative_zeros(self):
        tiny = 2.0**-1074
        # -0.0 inputs, and a value that rescales to -0.0 beside one near 1
        for xs, ys in (([-0.0, 0.0], [0.0, -0.0]), ([-0.0, 0.75], [-0.0, 0.0]),
                       ([1.0, -tiny], [-tiny, 0.0]), ([0, -0.0], [0, 0])):
            new, ref = normalised_bits(xs, ys)
            assert new == ref
        assert new[2] == 0  # all zero: k = 0
        s2 = hand_step(DENSE_2, [(1, 0), (-tiny, 0), (1, -tiny), (1, 1)], "approx")
        s1 = hand_step(DIAGONAL_2, [(1.5, 0), (1, 0)], "approx")
        assert step_bits(relfreq.core._mul(s2, s1, "approx")) == step_bits(reference_mul(s2, s1, "approx"))

    @pytest.mark.parametrize("largest", [
        2.0**-1074, 3 * 2.0**-1074, 2.0**-1025,  # k <= -1024: 2**-k overflows
        1.5 * 2.0**-1024, 0.75 * 2.0**-1022,  # subnormal, k = -1023 and -1022
        2.0**-1022, 1.5 * 2.0**1021,  # normal, k = -1021 and 1022
        2.0**1022, 1.5 * 2.0**1022, 1.7976931348623157e308,  # k >= 1023: 2**-k subnormal
    ])
    def test_largest_magnitude_at_and_beyond_the_power_of_two_range(self, largest):
        k = math.frexp(largest)[1]
        # values that rescale to 1.5, 2.5 and 1 + 2**-52 units of 2**-1074,
        # ties and a rounding into the subnormal range
        ties = [math.ldexp(1.5, k - 1074), -math.ldexp(2.5, k - 1074)]
        for xs, ys in (([largest, largest / 3], [-largest / 7, 0.0]),
                       ([0.0, 2.0**-1074], [-largest, largest * 2.0**-60]),
                       ([largest] + ties, [math.ldexp(1 + 2.0**-52, k - 1074), 0.0, 0.0])):
            new, ref = normalised_bits(xs, ys)
            assert new == ref

    @pytest.mark.parametrize("x1, x2", [(1e-200, 1e-120), (3e-160, -5e-163), (1e200, 1e108), (-3e154, 4e154)])
    def test_products_outside_the_power_of_two_range(self, x1, x2):
        # largest magnitudes 1e-320 and 1.5e-322 (subnormal) and 1e308 and
        # 1.2e309 (inf in y) and 1.2e308 (above 2**1022)
        s2 = hand_step(DENSE_2, [(x1, x2), (x2, x1), (x1, 0.0), (1.0, x1)], "approx")
        s1 = hand_step(DENSE_2, [(x2, 0.0), (x1, x2), (x2, x2), (x1, 1.0)], "approx")
        for a, b in ((s2, s1), (s1, s2), (s2, s2)):
            assert step_bits(relfreq.core._mul(a, b, "approx")) == step_bits(reference_mul(a, b, "approx"))

    def test_every_rescale_of_an_approx_pass_equals_ldexp(self):
        # the fold rescales the state after each advance by the same rule
        calls, normalise = [], relfreq.core._normalise

        def checked(xs, ys):
            new, ref = normalised_bits(xs, ys)
            assert new == ref
            calls.append(len(xs))
            return normalise(xs, ys)

        comps = [Component(f"c{i}", F(50 + i, 100), F(1 + i % 5, 3)) for i in range(40)]
        params = LadderIdenticalParams(F(1, 20), F(99, 100), F(3, 2), F(1, 2), 100_000)
        systems = (build_ladder(identical_ladder_spec(params)), seeded_ladder(27, 200),
                   build_kofn_g(KofnSpec(5, comps)))
        with mock.patch.object(relfreq.core, "_normalise", checked):
            for system in systems:
                single_pass(system, mode="approx")
        # 16 squarings of the 3x3 cell; an advance per set bit of 10**5 and
        # per ladder cell of dimension 3, and per k-of-n component of 5
        assert calls.count(9) == 16 and calls.count(3) == 1 + 6 + 201 and calls.count(5) == 40


def ladder_values(seed, cells):
    """(p, lam) of a, b, c, S and T of cells 0..cells, p in 0.80-0.99 and
    lam in 0.1-2.0, drawn from ``Random(seed)``."""
    rng = random.Random(seed)
    return [[(F(rng.randint(80, 99), 100), F(rng.randint(1, 20), 10)) for _ in "abcST"]
            for _ in range(cells + 1)]


def ladder_spec(values, terminal="Tn"):
    """The ladder of distinct components with the (p, lam) ``values`` of
    :func:`ladder_values`; cell 0 reads only its b, S and T."""
    (_, b, _, s, t), *rest = values
    cells = [entry_cell(Component("b0", *b), Component("S0", *s), Component("T0", *t))]
    cells += [LadderCell(*(Component(f"{x}{n}", *v) for x, v in zip("abcST", row)))
              for n, row in enumerate(rest, start=1)]
    return LadderSpec(tuple(cells), terminal)


class TestLongExactChains:
    """Exact reports of long chains reduced mod the prime 2**61 - 1 equal
    dynamic programmes over dual numbers that share no code with the
    transfer-matrix pass."""

    def test_ladder_against_the_frontier_programme(self):
        values = ladder_values(1200, 1200)
        report, lengths = block_lengths(build_ladder(ladder_spec(values)), None)
        # the blocked fold, and so the exact dual product, runs for most of the chain
        assert sum(lengths) > 600
        assert (mod_prime(report.availability), mod_prime(report.frequency)) == ladder_frontier_mod(values)

    def test_kofn_g_against_the_count_programme(self):
        rng = random.Random(600)
        values = [(F(rng.randint(50, 99), 100), F(rng.randint(1, 30), rng.randint(1, 9))) for _ in range(600)]
        system = build_kofn_g(KofnSpec(30, [Component(f"c{i}", p, lam) for i, (p, lam) in enumerate(values)]))
        report = single_pass(system)
        assert (mod_prime(report.availability), mod_prime(report.frequency)) == kofn_g_count_mod(30, values)

    def test_a_10000_cell_ladder_against_the_frontier_programme(self):
        # 10**4 cells: finalize's projection, reduction and offset at full size
        values = ladder_values(10000, 10000)
        report = single_pass(build_ladder(ladder_spec(values)))
        assert (mod_prime(report.availability), mod_prime(report.frequency)) == ladder_frontier_mod(values)

    def test_30_of_10000_g_against_the_count_programme(self):
        # offset 1 and vL = (-1, 0, ..., 0) over 10**4 distinct components
        rng = random.Random(10000)
        values = [(F(rng.randint(50, 99), 100), F(rng.randint(1, 30), rng.randint(1, 9))) for _ in range(10000)]
        system = build_kofn_g(KofnSpec(30, [Component(f"c{i}", p, lam) for i, (p, lam) in enumerate(values)]))
        report = single_pass(system)
        assert (mod_prime(report.availability), mod_prime(report.frequency)) == kofn_g_count_mod(30, values)

    def test_lincon_f_against_the_run_programme(self):
        rng = random.Random(2000)
        values = [(F(rng.randint(50, 99), 100), F(rng.randint(1, 30), rng.randint(1, 9))) for _ in range(2000)]
        system = build_lincon_f(KofnSpec(4, [Component(f"c{i}", p, lam) for i, (p, lam) in enumerate(values)]))
        report = single_pass(system)
        assert len(system.pairs.runs) == 2000
        assert (mod_prime(report.availability), mod_prime(report.frequency)) == lincon_f_run_mod(4, values)

    def test_the_programmes_on_small_systems_equal_exact_reports(self):
        # the programmes themselves, where the oracle and the closed form reach
        values = ladder_values(7, 3)
        for terminal_s, terminal in ((False, "Tn"), (True, "Sn")):
            spec = ladder_spec(values, terminal)
            sf = ladder_structure(spec)
            system = build_ladder(spec)
            probs = {c.id: c.p for c in system.components}
            a = oracle_availability(sf, probs)
            nu = oracle_frequency(sf, probs, {c.id: c.lam for c in system.components})
            assert ladder_frontier_mod(values, terminal_s) == (mod_prime(a), mod_prime(nu))
        kofn = [(F(3 + i, 10), F(i + 1, 2)) for i in range(6)]
        a, nu = kofn_g_identical(3, 6, F(1, 2), F(2))
        assert kofn_g_count_mod(3, [(F(1, 2), F(2))] * 6) == (mod_prime(a), mod_prime(nu))
        ids = [f"c{i}" for i in range(6)]
        probs, rates = dict(zip(ids, (p for p, _ in kofn))), dict(zip(ids, (lam for _, lam in kofn)))
        sf = kofn_g_structure(ids, 3)
        a, nu = oracle_availability(sf, probs), oracle_frequency(sf, probs, rates)
        assert kofn_g_count_mod(3, kofn) == (mod_prime(a), mod_prime(nu))
        for k in (1, 2, 3, 6):
            sf = lincon_f_structure(ids, k)
            a, nu = oracle_availability(sf, probs), oracle_frequency(sf, probs, rates)
            assert lincon_f_run_mod(k, kofn) == (mod_prime(a), mod_prime(nu))


BINDING_IDS = ("x1", "x2", "x3", "x4")


@st.composite
def bound_layouts(draw, coefficients=None):
    """(layout, ids, assignment): a layout of dimension 1-3 whose slots hold
    polynomials of up to three terms over up to four variables, each term
    reading up to three, with every variable read; ``ids`` binds them to
    distinct ids in any order.  The nonzero coefficients are drawn from
    ``coefficients``, by default :func:`mixed_rationals`."""
    dim = draw(st.integers(1, 3))
    read = st.frozensets(st.integers(0, 3), max_size=3)
    coefficients = mixed_rationals() if coefficients is None else coefficients
    poly = st.dictionaries(read, coefficients.filter(bool), min_size=1, max_size=3)
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
            twin = MatrixPair.from_entries(layout.dim, [(r, c, e.terms) for row in bound.m for r, c, e in row])
            assert dense_step(compile_(bound, assignment, mode)) == dense_step(
                compile_(twin, assignment, mode))
        vector = tuple(F(i + 1, 3) for i in range(layout.dim))
        system = TransferSystem(vector, [pair, sorted_pair, pair, pair], vector[::-1], offset=F(1, 2))
        report = single_pass(system, assignment)
        assert (report.availability, report.frequency) == dense_fraction_fold(system, assignment)
        # finalize builds U and nu/A from integers, not from A and nu
        assert report.unavailability == 1 - report.availability
        assert report.failure_rate == (report.frequency / report.availability if report.availability else None)

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_compiled_step_shares_its_layouts_rows(self, mode):
        # a compile builds no object per position: its rows are the layout's
        comps = tuple(Component(f"c{i}", F(i, 7), F(i, 3)) for i in range(1, 7))
        custom = MatrixPair.from_entries(2, [(0, 0, {(): 1, ("c1",): -1}), (0, 1, {("c1",): 1}),
                                             (1, 1, {("c1", "c2"): 1})])
        ladder = build_ladder(distinct_ladder_spec(F(2, 3), F(4, 5), F(3), F(1, 2), 3))
        assignment = {c.id: (c.p, c.lam) for c in comps} | ladder.default_assignment()
        for pair in (tuple(build_kofn_g(KofnSpec(3, comps)).pairs)[2], tuple(ladder.pairs)[1], custom):
            assert relfreq.core._compile(pair, assignment, mode).rows is pair.layout.rows

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
        # every config family, and a pair binding one id twice: parsing and
        # rewriting both work on term tuples
        three = [{"id": f"c{i}", "p": f"{i}/5", "lambda": str(i)} for i in (1, 2, 3)]
        configs = [
            {"family": "kofn-g", "k": 2, "components": three},
            {"family": "lincon-f", "k": 2, "components": three},
            {"family": "ladder", "p": "1/2", "rho": "9/10", "n": 3},
            {"family": "custom-matrices",
             "components": [{"id": "x", "p": "3/4"}, {"id": "y", "p": "1/2"}],
             "v_left": ["1", "0"], "v_right": ["1", "1"],
             # x x = x, and terms over {x, y} and over {y} are each given twice
             "matrices": [[[[["1", ["x", "x"]], ["-1", ["x", "y"]], ["1/2", ["y", "x"]]], []],
                           [[["1", []], ["2", ["y"]], ["1", ["y", "y"]]], [["1/2", ["x"]]]]]]},
        ]
        systems = [build_from_config(cfg) for cfg in configs]
        rebound = MatrixPair(tuple(ladder.pairs)[1].layout, ("a1", "b1", "a1", "S1", "T1"))
        assert made == []
        assert (ladder.pairs.length, kofn.pairs.length, lincon.pairs.length) == (51, 60, 60)
        assert [system.pairs.length for system in systems] == [3, 3, 4, 1]
        assert tuple(systems[3].pairs)[0] == MatrixPair(Layout(
            2, (((0, 0),), ((0, 1), (1, 2))),
            ({(0,): 1, (0, 1): F(-1, 2)}, {(): 1, (1,): 3}, {(0,): F(1, 2)})), ("x", "y"))
        assert rebound.ids == ("S1", "T1", "a1", "b1")


def compile_pairs():
    """Distinct pairs of each kind the pass compiles: k-of-n:G and lincon-F
    (one id), a distinct-id ladder (entry cell and interior cells, five
    ids), a ladder cell rewritten over its distinct ids, and
    ``from_entries`` pairs of mixed degree and of no id at all."""
    comps = tuple(Component(f"c{i}", F(i, 7), F(i, 3)) for i in range(1, 6))
    systems = [build_kofn_g(KofnSpec(3, comps)), build_lincon_f(KofnSpec(2, comps)),
               build_ladder(distinct_ladder_spec(F(2, 3), F(4, 5), F(3), F(1, 2), 3))]
    pairs = [pair for system in systems for pair, _ in system.pairs.runs]
    cell = tuple(systems[2].pairs)[1]
    pairs.append(MatrixPair(cell.layout, ("a1", "b1", "a1", "S1", "T1")))
    pairs += [MatrixPair.from_entries(2, [(0, 0, {(): 1, ("c1",): -1}), (0, 1, {("c1", "c2"): F(3, 4)}),
                                          (1, 1, {(): F(5, 2), ("c2",): -1})]),
              MatrixPair.from_entries(1, [(0, 0, {(): F(2, 3)})])]
    return pairs


COMPILE_PAIRS = compile_pairs()
MISSING = object()  # a bad value: the id is left out of the assignment
BAD_VALUES = [MISSING, F(1, 2), (F(1, 2), 1, 2), (math.nan, 1), (F(1, 2), math.inf), ("nan", 1),
              (F(3, 2), 1), (-0.5, F(1)), (F(1, 2), -1), (F(1, 2), F(-1, 3)), (F(3, 2), -1),
              (F(1, 2), 10**400)]


def compile_numbers(hi):
    """A number in [0, hi] as a Fraction, an int, a float or a decimal or
    ``n/d`` string, the forms an assignment may hold."""
    fractions = st.builds(lambda n, d: hi * F(n, n + d), st.integers(0, 10**30), st.integers(1, 10**30))
    return (fractions | st.integers(0, hi) | st.floats(0, hi)
            | fractions.map(lambda f: f"{f.numerator}/{f.denominator}")
            | st.integers(0, hi * 10**4).map(lambda n: f"{n // 10**4}.{n % 10**4:04d}"))


# units, +-2, 1/2, 1/3 and 1/6 (1/C is a unit only after exact scaling),
# and coefficients near and beyond the double range
KERNEL_COEFFICIENTS = st.sampled_from([F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 3), F(1, 6), F(-5, 6),
                                       F(10**300), F(-(10**300)), F(10**400)])
UNIT_AFTER_SCALING = Layout(1, [[(0, 0)]], [{(0,): F(1, 6), (0, 1): F(-1, 2), (): F(1, 3)}])
BEYOND_DOUBLES = Layout(2, [[(1, 1)], [(0, 0)]], [{(0,): F(2), (): F(-5, 6)}, {(1,): F(10**400)}])


@st.composite
def compile_cases(draw):
    """(pair, assignment, mode): one of :data:`COMPILE_PAIRS` or a drawn
    bound layout, some of whose coefficients are drawn from
    :data:`KERNEL_COEFFICIENTS`, with each id's (p, lam) given as a tuple
    or a list of mixed number forms, and about one id in eight given a bad
    value."""
    if draw(st.booleans()):
        pair = draw(st.sampled_from(COMPILE_PAIRS))
    else:
        layout, ids, _ = draw(bound_layouts(KERNEL_COEFFICIENTS | mixed_rationals()))
        pair = MatrixPair(layout, ids)
    assignment = {}
    for cid in pair.ids:
        if draw(st.integers(0, 7)) == 0:
            value = draw(st.sampled_from(BAD_VALUES))
        else:
            value = draw(st.sampled_from([tuple, list]))(
                [draw(compile_numbers(1)), draw(compile_numbers(10**6) | st.just(F(10**400, 3)))])
        if value is not MISSING:
            assignment[cid] = value
    return pair, assignment, draw(st.sampled_from(["exact", "approx"]))


def compile_outcome(compile_, pair, assignment, mode):
    """The step's bits, or the type and message of the error raised."""
    try:
        return step_bits(compile_(pair, assignment, mode))
    except ReliabilityError as exc:
        return type(exc), str(exc)


class TestLeanCompile:
    """``_compile`` reads each value once and makes approx floats straight
    from the ratios; it must equal the compile it replaced, kept in
    ``tests/helpers.py``, bit for bit and error for error."""

    @given(compile_cases())
    @example((MatrixPair(UNIT_AFTER_SCALING, ("x2", "x1")), {"x1": (F(1, 3), 2), "x2": [0.5, "5/7"]}, "exact"))
    @example((MatrixPair(UNIT_AFTER_SCALING, ("x2", "x1")), {"x1": (F(1, 3), 2), "x2": [0.5, "5/7"]}, "approx"))
    @example((MatrixPair(BEYOND_DOUBLES, ("x1", "x2")), {"x1": (F(1, 3), 2), "x2": [0.5, "5/7"]}, "approx"))
    @settings(max_examples=400, deadline=None)
    def test_equals_the_reference_compile(self, case):
        pair, assignment, mode = case
        assert (compile_outcome(relfreq.core._compile, pair, assignment, mode)
                == compile_outcome(reference_compile, pair, assignment, mode))

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    @pytest.mark.parametrize("bad", BAD_VALUES, ids=[
        "missing", "bare-p", "3-tuple", "nan-p", "infinite-rate", "nan-string", "p-above-1",
        "negative-p", "negative-int-rate", "negative-fraction-rate", "bad-p-and-rate", "rate-beyond-double"])
    def test_a_bad_value_raises_the_reference_error(self, mode, bad):
        # the interior ladder cell reads five ids; the first holds a rate
        # beyond the double range, which approx mode names only once every
        # id has been read and checked, so the bad third value comes first
        pair = next(pair for pair in COMPILE_PAIRS if len(pair.ids) == 5)
        assignment = {cid: (F(1, 3), F(2)) for cid in pair.ids}
        assignment[pair.ids[0]] = (F(1, 2), F(10**400, 7))
        if bad is MISSING:
            del assignment[pair.ids[2]]
        else:
            assignment[pair.ids[2]] = bad
        outcome = compile_outcome(relfreq.core._compile, pair, assignment, mode)
        assert outcome == compile_outcome(reference_compile, pair, assignment, mode)
        # exact mode accepts a rate beyond the double range
        assert isinstance(outcome[0], type) == (mode == "approx" or bad is not BAD_VALUES[-1])


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_a_large_custom_pair_compiles_as_the_reference(mode):
    # one slot of 4005 two-id terms, and a term over all 320 ids: a kernel
    # makes one statement per operation, so neither reaches the compiler's
    # nesting limit, which one sum of about 3000 terms does
    rng = random.Random(30)
    ids = [f"c{i:03d}" for i in range(320)]
    many = [[f"{rng.choice([-1, 1]) * rng.randint(1, 9)}/{rng.randint(1, 9)}", [ids[a], ids[b]]]
            for a, b in combinations(range(90), 2)]
    wide = [["-3/7", ids], ["1", []]]
    system = build_from_config({
        "family": "custom-matrices",
        "components": [{"id": cid, "p": f"{rng.randint(900, 999)}/1000", "lambda": f"{rng.randint(0, 9)}/7"}
                       for cid in ids],
        "v_left": ["1", "0"], "v_right": ["1", "1"],
        "matrices": [[[many, wide], [[], [["1/2", []], ["1", [ids[5]]]]]]]})
    pair = tuple(system.pairs)[0]
    assert len(pair.layout.polys[0]) == 4005 and max(len(vs) for vs, _ in pair.layout.polys[1]) == 320
    assignment = system.default_assignment()
    assert step_bits(relfreq.core._compile(pair, assignment, mode)) == step_bits(
        reference_compile(pair, assignment, mode))


def kernel_code(layout, mode):
    """The code of a layout's kernel in ``mode``: one object for every
    layout bound by one generated factory, another for each factory."""
    return getattr(layout, f"{mode}_kernel").__code__


class Generated(list):
    """The (shape, mode) of each compile kernel generated, in order, and in
    ``advances`` the (rows, mode) of each advance kernel."""

    def __init__(self):
        super().__init__()
        self.advances = []


class TestKernels:
    """A kernel is generated once per term shape and mode and bound to each
    layout's own coefficients, so every layout of one shape shares one
    generated function; an advance kernel is generated once per rows and
    mode, and only for a layout's rows."""

    @pytest.fixture
    def generated(self, monkeypatch):
        """The kernels generated, as :class:`Generated`, from empty kernel
        and advance caches and with the builders' layouts made afresh, so
        that none holds a kernel yet."""
        calls = Generated()
        source, advance_source = relfreq.core._kernel_source, relfreq.core._advance_source

        def counting(shape, mode):
            calls.append((shape, mode))
            return source(shape, mode)

        def counting_advance(rows, mode):
            calls.advances.append((rows, mode))
            return advance_source(rows, mode)

        monkeypatch.setattr(relfreq.core, "_kernel_source", counting)
        monkeypatch.setattr(relfreq.core, "_kernel", lru_cache(maxsize=256)(relfreq.core._kernel.__wrapped__))
        monkeypatch.setattr(relfreq.core, "_advance_source", counting_advance)
        monkeypatch.setattr(relfreq.core, "_advance_kernel",
                            lru_cache(maxsize=256)(relfreq.core._advance_kernel.__wrapped__))
        monkeypatch.setattr(relfreq.kofn, "_layout", lru_cache(maxsize=256)(relfreq.kofn._layout.__wrapped__))
        cell = relfreq.ladder._CELL_LAYOUT
        monkeypatch.setattr(relfreq.ladder, "_CELL_LAYOUT", Layout(cell.dim, cell.rows, cell.polys))
        return calls

    def test_a_layout_generates_one_kernel_per_mode(self, generated):
        system = build_ladder(distinct_ladder_spec(F(9, 10), F(99, 100), F(1, 3), F(1, 7), 999))
        assignment = system.default_assignment()
        state = initial_state(system, "approx")
        for pair in system.pairs:
            state = stream_step(state, pair, assignment)
        assert state.index == 1000 and finalize(system, state).availability > 0
        assert [mode for _, mode in generated] == ["approx"]
        assert generated.advances == [(relfreq.ladder._CELL_LAYOUT.rows, "approx")]
        assert run_equivalence_trials(200) is None
        # k-of-n:G, lincon-F and ladders in exact mode, each shape once
        assert len(generated) == len(set(generated)) > 3
        assert all(mode == "exact" for _, mode in generated[1:])
        # and each rows shape once
        assert len(generated.advances) == len(set(generated.advances)) > 3
        assert all(mode == "exact" for _, mode in generated.advances[1:])

    def test_an_identical_sweep_generates_no_kernel_for_its_products(self, generated, tmp_path):
        # n = 1000 is 0b1111101000: each row applies only squared steps
        argv = ["sweep", "--family", "kofn-g", "--param", "p", "--range", "0.5:0.9:0.1",
                "--k", "10", "--n", "1000", "--out", str(tmp_path / "sweep.csv")]
        for _ in range(2):
            assert main(argv) == 0
        assert generated.advances == [(relfreq.kofn._layout("kofn-g", 10).rows, "approx")]
        assert [mode for _, mode in generated] == ["approx"]

    def test_import_generates_no_kernel(self):
        proc = run_python("-c", "import relfreq, relfreq.cli, relfreq.core as core; "
                          "print(core._kernel.cache_info().misses, core._advance_kernel.cache_info().misses)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 0\n"

    def test_layouts_of_one_shape_share_one_kernel(self, generated):
        layouts = [relfreq.kofn._layout("kofn-g", k) for k in range(2, 13)]
        assignment = {"x": (F(1, 3), F(2))}
        for mode in ("exact", "approx"):
            for layout in layouts:
                pair = MatrixPair(layout, ("x",))
                assert step_bits(relfreq.core._compile(pair, assignment, mode)) == step_bits(
                    reference_compile(pair, assignment, mode))
            assert {kernel_code(layout, mode) for layout in layouts} == {kernel_code(layouts[0], mode)}
        assert [mode for _, mode in generated] == ["exact", "approx"]
        # custom pairs with equal term maps share too, whatever their rows
        twins = [MatrixPair.from_entries(2, [(0, c, {("y",): F(1, 3)}), (1, 1 - c, {(): 2})]) for c in (0, 1)]
        for pair in twins:
            relfreq.core._compile(pair, {"y": (F(1, 2), F(1))}, "exact")
        assert twins[0].layout.rows != twins[1].layout.rows
        assert kernel_code(twins[0].layout, "exact") is kernel_code(twins[1].layout, "exact")
        assert len(generated) == 3

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_pairs_of_one_shape_with_their_own_coefficients_share_one_kernel(self, generated, mode):
        # 200 pairs over x_i and x_{i+1} of one term structure and one sign
        # pattern, each coefficient its own k/d with |k| > 1, so that none
        # is +-1, before or after exact scaling
        rng = random.Random(31)

        def coeff(sign):
            return next(c for c in iter(lambda: F(sign * rng.randint(2, 99), rng.randint(1, 99)), None)
                        if abs(c.numerator) > 1)

        ids = [f"x{i:03d}" for i in range(201)]
        pairs = [MatrixPair.from_entries(3, [
            (0, 0, {(a,): coeff(1), (a, b): coeff(-1)}),
            (0, 2, {(): coeff(1)}),
            (1, 1, {(b,): coeff(-1), (): coeff(1)}),
            (2, 0, {(a, b): coeff(1)}),
            (2, 2, {(a,): coeff(-1), (b,): coeff(1)}),
        ]) for a, b in zip(ids, ids[1:])]
        assignment = {cid: (F(rng.randint(0, 100), 100), F(rng.randint(0, 9), 7)) for cid in ids}
        for pair in pairs:
            assert step_bits(relfreq.core._compile(pair, assignment, mode)) == step_bits(
                reference_compile(pair, assignment, mode))
        assert len({pair.layout.polys for pair in pairs}) == 200
        assert len({kernel_code(pair.layout, mode) for pair in pairs}) == 1
        assert [m for _, m in generated] == [mode]

    def test_a_coefficient_beyond_the_range_names_its_own_layouts_entry(self, generated):
        # one shape: the big coefficient's slot is at (0, 0) in the first
        # layout and at (1, 0) in the second, of equal polys, and the third
        # layout's big coefficient is in its other slot, at (1, 1)
        polys = ({(0,): -(10**400)}, {(): 2})
        rows = (((0, 0),), ((1, 1),))
        layouts = [Layout(2, rows, polys), Layout(2, rows[::-1], polys),
                   Layout(2, rows, ({(0,): -3}, {(): 10**401}))]
        assignment = {"x": (F(1, 2), F(1))}
        for layout, entry in zip(layouts, ["(0, 0)", "(1, 0)", "(1, 1)"]):
            pair = MatrixPair(layout, ("x",))
            assert step_bits(relfreq.core._compile(pair, assignment, "exact")) == step_bits(
                reference_compile(pair, assignment, "exact"))
            with pytest.raises(ReliabilityError, match=rf"^matrix entry {re.escape(entry)}: coefficient"):
                relfreq.core._compile(pair, assignment, "approx")
            assert compile_outcome(reference_compile, pair, assignment, "approx")[1].startswith(
                f"matrix entry {entry}: coefficient")
        assert [mode for _, mode in generated] == ["exact"]


# row 0 is c1 a_0 - c2 a_1 and row 1 is empty: -0.0 products come from a
# zero a_1 or a -0.0 a_0, and the empty row is a zero row sum
EMPTY_ROW_PAIR = MatrixPair.from_entries(2, [(0, 0, {("c1",): 1}), (0, 1, {("c2",): -1})])
ADVANCE_PAIRS = COMPILE_PAIRS + [EMPTY_ROW_PAIR]


@st.composite
def advance_cases(draw):
    """(step, a, v, mode): the step of one of :data:`ADVANCE_PAIRS`, k-of-n:G,
    lincon-F, ladder cells and custom matrices, compiled at drawn values,
    with state vectors of ints up to 2**300 in exact mode or of floats,
    zeros of both signs among them, in approx mode."""
    mode = draw(st.sampled_from(["exact", "approx"]))
    pair = draw(st.sampled_from(ADVANCE_PAIRS))
    p = st.sampled_from([F(0), F(1), F(1, 2)]) | st.builds(F, st.integers(0, 99), st.just(99))
    lam = st.sampled_from([F(0), F(1, 3), F(7)])
    step = relfreq.core._compile(pair, {cid: (draw(p), draw(lam)) for cid in pair.ids}, mode)
    if mode == "exact":
        number = st.integers(-2**300, 2**300) | st.sampled_from([0, 1, -1])
    else:
        number = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 2.0**-1074, -0.5])
    vector = st.lists(number, min_size=pair.dim, max_size=pair.dim)
    return step, draw(vector), draw(vector), mode


def empty_row_case(mode, a, v):
    step = relfreq.core._compile(EMPTY_ROW_PAIR, {"c1": (F(1, 2), F(3)), "c2": (F(0), F(1))}, mode)
    return step, a, v, mode


def assert_is_reference_advance(new, case):
    """``new``, a generated advance of the (step, a, v, mode) ``case``, is
    the reference advance bit for bit, each int zero of an empty row in
    approx mode read as 0.0."""
    step, a, v, mode = case
    ref = reference_advance(step, a, v)
    if mode == "approx":
        assert all(type(x) is float for x in chain(*new))
        ref = [[float(x) for x in vec] for vec in ref]
    assert [list(map(number_bits, vec)) for vec in new] == [list(map(number_bits, vec)) for vec in ref]


def checked_normalise(skips):
    """``_normalise`` that requires lists of floats in and, by bits, the
    per-entry ``ldexp`` reference's floats out, and appends to ``skips``
    whether the largest magnitude already lay in [0.5, 1)."""
    normalise = relfreq.core._normalise

    def checked(xs, ys):
        assert all(type(x) is float for x in chain(xs, ys))
        new, ref = normalised_bits(xs, ys)
        assert new == ref
        skips.append(0.5 <= max(map(abs, chain(xs, ys))) < 1)
        return normalise(xs, ys)

    return checked


class TestArithmeticOnly:
    """A step does only the work that can change a value: an approx state
    whose largest magnitude is already in [0.5, 1) is not rescaled, an
    exact row sum starts from its first product, and a pass state is set
    by one write.  Every number, and its type, is what it was."""

    @given(advance_cases())
    @example(empty_row_case("exact", [5, 2**200], [0, -3]))
    @example(empty_row_case("approx", [-0.0, 0.0], [0.0, -0.0]))
    @example(empty_row_case("approx", [0.75, 0.0], [-0.0, 0.5]))
    @settings(max_examples=300, deadline=None)
    def test_advance_equals_the_reference_advance(self, case):
        step, a, v, mode = case
        new = relfreq.core._advance(step, a, v, mode)
        ref = reference_advance(step, a, v)
        if mode == "approx":
            # the reference's one int, the 0 of an empty row, was rescaled to 0.0
            assert all(type(x) is float for x in chain(*new))
            ref = [[float(x) for x in vec] for vec in ref]
        assert [list(map(number_bits, vec)) for vec in new] == [list(map(number_bits, vec)) for vec in ref]

    @given(advance_cases())
    @example(empty_row_case("exact", [5, 2**200], [0, -3]))
    @example(empty_row_case("approx", [-0.0, 0.0], [0.0, -0.0]))
    @example(empty_row_case("approx", [0.75, 0.0], [-0.0, 0.5]))
    @settings(max_examples=300, deadline=None)
    def test_layout_advance_equals_the_reference_advance(self, case):
        # the path the fold takes for a compiled step, whose rows are its layout's
        step, a, v, mode = case
        assert_is_reference_advance(relfreq.core._advance_kernel(step.rows, mode)(step.duals, a, v), case)

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_a_row_of_3000_positions_advances(self, mode):
        # one sum of 3000 positions nests deeper than the compiler accepts,
        # so the generated row goes on in further statements
        dim = 3000
        layout = Layout(dim, ((tuple((c, 0) for c in range(dim)),) + ((),) * (dim - 1)), ({(0,): 1},))
        step = relfreq.core._compile(MatrixPair(layout, ("x",)), {"x": (F(1, 3), F(2))}, mode)
        rng = random.Random(3000)
        a, v = ([rng.randint(-9, 9) if mode == "exact" else rng.uniform(-1, 1) for _ in range(dim)]
                for _ in range(2))
        assert_is_reference_advance(getattr(layout, f"{mode}_advance")(step.duals, a, v), (step, a, v, mode))

    def test_every_rescale_of_a_fold_reads_and_gives_floats(self):
        # a run of the empty-row pair is squared by _mul in single_pass and
        # advanced one step at a time when streamed
        comps = (Component("c1", F(9, 10), F(1, 10)), Component("c2", F(1, 5), F(1, 10)))
        custom = TransferSystem((F(1), F(1)), Runs.from_runs([(EMPTY_ROW_PAIR, 5)]), (F(3, 4), F(1, 4)),
                                components=comps)
        kofn = build_kofn_g(KofnSpec(3, tuple(Component(f"c{i}", F(90 + i, 100), F(i, 5)) for i in range(8))))
        ladder = seeded_ladder(28, 40)
        skips = []
        with mock.patch.object(relfreq.core, "_normalise", checked_normalise(skips)):
            for system in (custom, kofn, ladder):
                single_pass(system, mode="approx")
                streamed(system, system.default_assignment(), "approx")
        # custom: 2 squarings and 2 advances, then 5 streamed advances; some
        # rescales find the largest magnitude already in [0.5, 1)
        assert len(skips) == (2 + 2 + 5) + (8 + 8) + (41 + 41) and 0 < sum(skips) < len(skips)

    def test_pass_state_is_the_frozen_dataclass_it_was(self):
        fields = dataclasses.fields(PassState)
        assert [f.name for f in fields] == ["a_vec", "v_vec", "index", "mode", "exponent", "scale"]
        assert [f.default for f in fields[3:]] == ["exact", 0, 1]
        state = PassState((1, 2), (0, 3), 4, scale=5)
        assert state == PassState(a_vec=(1, 2), v_vec=(0, 3), index=4, mode="exact", exponent=0, scale=5)
        assert hash(state) == hash(((1, 2), (0, 3), 4, "exact", 0, 5))
        assert repr(state) == "PassState(a_vec=(1, 2), v_vec=(0, 3), index=4, mode='exact', exponent=0, scale=5)"
        assert state != dataclasses.replace(state, exponent=1) == PassState((1, 2), (0, 3), 4, "exact", 1, 5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.index = 5
        with pytest.raises(DimensionMismatchError, match="dimensions differ"):
            PassState((1,), (0, 0), 0)
        # replace calls the constructor, so it checks again
        with pytest.raises(ReliabilityError, match="state scale 0 is below 1"):
            dataclasses.replace(state, scale=0)
        with pytest.raises(DimensionMismatchError, match="dimensions differ"):
            dataclasses.replace(state, v_vec=(0,))


class TestRuns:
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_reads_like_the_tuple_it_stands_for(self, run_list):
        # three objects, so adjacent runs of one object are common
        pool = [object() for _ in range(3)]
        runs = [(pool[i], r) for i, r in run_list]
        expanded = tuple(item for item, r in runs for _ in range(r))
        seq = Runs.from_runs(runs)
        assert seq.length == len(expanded) and bool(seq) == bool(expanded)
        assert all(a is b for a, b in zip(seq, expanded, strict=True))
        # the stored runs are the maximal ones, however the sequence was given
        assert seq.runs == Runs(expanded).runs == Runs(seq).runs
        assert seq == Runs(expanded) and hash(seq) == hash(Runs(expanded))
        assert all(r > 0 for _, r in seq.runs)
        assert all(a is not b for (a, _), (b, _) in zip(seq.runs, seq.runs[1:]))

    def test_negative_run_rejected(self):
        with pytest.raises(ValueError):
            Runs.from_runs([(object(), -1)])

    def test_a_count_past_sys_maxsize(self):
        # CPython's len() stops at sys.maxsize; the count and truth do not
        seq = Runs.from_runs([(object(), 2**64)])
        assert seq and seq.length == Runs(seq).length == 2**64
        assert not Runs() and Runs().length == 0

    def test_has_no_tuple_emulation(self):
        # a chain is its runs: no len(), no index and no walking finder
        r = Runs.from_runs([(object(), 2**64), (object(), 1)])
        for read in (len, lambda r: r[0], reversed):
            with pytest.raises(TypeError):
                read(r)
        for name in ("index", "count"):
            with pytest.raises(AttributeError):
                getattr(r, name)

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
        assert c.lam * c.p == F(3) * (1 - c.p)

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
         (("x", 1, F(1, 3)), "component 'x': a perfect component must have zero failure rate"),
         (("x", 2), "component 'x': p=2 outside [0,1]"),
         (("x", -1, 0), "component 'x': p=-1 outside [0,1]"),
         (("x", 1, -1), "component 'x': negative failure rate"),
         (("x", 1.5), "component 'x': p=3/2 outside [0,1]"),
         (("x", -0.25, 0.0), "component 'x': p=-1/4 outside [0,1]"),
         (("x", 0.5, -0.5), "component 'x': negative failure rate"),
         (("x", 1.0, 0.5), "component 'x': a perfect component must have zero failure rate"),
         (("x", F(1), F(1, 3)), "component 'x': a perfect component must have zero failure rate")],
        ids=["above-one", "below-zero", "negative-rate", "perfect-with-rate",
             "int-above-one", "int-below-zero", "int-negative-rate",
             "float-above-one", "float-below-zero", "float-negative-rate", "float-perfect-with-rate",
             "fraction-perfect-with-rate"],
    )
    def test_rejections_name_the_component_and_the_fault(self, args, message):
        with pytest.raises(ReliabilityError) as info:
            Component(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("make", [
        lambda: Component("x", math.nan), lambda: Component("x", math.inf),
        lambda: Component("x", F(1, 2), math.nan), lambda: Component("x", F(1, 2), math.inf),
        lambda: Component.steady_state("x", math.nan), lambda: Component.steady_state("x", math.inf),
        lambda: Component.steady_state("x", F(1, 2), math.nan),
    ], ids=["nan-p", "inf-p", "nan-rate", "inf-rate", "steady-nan-p", "steady-inf-p", "steady-nan-mu"])
    def test_a_non_finite_value_is_rejected_by_name(self, make):
        with pytest.raises(ReliabilityError, match=r"component 'x': \(p, (lambda|mu)\) = .* is not finite"):
            make()

    @pytest.mark.parametrize("bad, fault", [("1/0", "not a number"), (None, "not a number"),
                                            ("abc", "not a number"), ("nan", "not finite"),
                                            ("-inf", "not finite")],
                             ids=["zero-denominator", "none", "unparsable", "nan-string", "infinite-string"])
    def test_a_value_that_is_not_a_number_is_rejected_by_name(self, bad, fault):
        half = F(1, 2)
        for make, names, values in ((Component, "p, lambda", (bad, half)), (Component, "p, lambda", (half, bad)),
                                    (Component.steady_state, "p, mu", (bad, half)),
                                    (Component.steady_state, "p, mu", (half, bad))):
            with pytest.raises(ReliabilityError) as info:
                make("x", *values)
            assert str(info.value) == f"component 'x': ({names}) = {values} is {fault}"

    def test_fraction_inputs_are_kept_and_others_converted(self):
        p, lam = F(9, 10), F(1, 3)
        c = Component("x", p, lam)
        assert c.p is p and c.lam is lam
        c = Component("x", 0.5, 2)
        assert (c.p, c.lam) == (F(1, 2), F(2)) and type(c.p) is type(c.lam) is F

    @staticmethod
    def forms(value: F):
        """``value`` as a Fraction, an int where it is whole, a float where
        the float is exact, and a string."""
        forms = [st.just(value), st.just(str(value))]
        if value.denominator == 1:
            forms.append(st.just(int(value)))
        if F(float(value)) == value:
            forms.append(st.just(float(value)))
        return st.one_of(forms)

    RATIONALS = st.fractions(min_value=0, max_value=1, max_denominator=10**6)

    @given(p=RATIONALS.filter(bool).flatmap(forms),
           mu=st.fractions(min_value=0, max_value=10**6, max_denominator=10**6).flatmap(forms)
           | st.floats(0, 1e300))
    @settings(max_examples=300, deadline=None)
    @example(p=1, mu=3)
    @example(p=1.0, mu=0.1)
    @example(p="3/4", mu="1.5")
    @example(p=F(1, 10**30), mu=10**30)
    def test_steady_state_rate_is_mu_q_over_p(self, p, mu):
        c = Component.steady_state("x", p, mu)
        assert c.lam == F(mu) * (1 - F(p)) / F(p)
        assert c.p == F(p) and type(c.p) is type(c.lam) is F

    @pytest.mark.parametrize("form", [F, int, float, str])
    def test_steady_state_rejections_hold_for_every_input_form(self, form):
        def raises(message, p, mu):
            with pytest.raises(ReliabilityError) as info:
                Component.steady_state("x", p, mu)
            assert str(info.value) == message

        raises("component 'x': p=0 has no steady-state rate", form(0), form(1))
        raises("component 'x': negative repair rate", form(1), form(-2))
        raises("component 'x': negative repair rate", form(0), form(-2))
        if form in (float, str):
            for bad in ("nan", "inf"):
                raises(f"component 'x': (p, mu) = {(form(bad), form(1))} is not finite", form(bad), form(1))
                raises(f"component 'x': (p, mu) = {(form(1), form(bad))} is not finite", form(1), form(bad))

    def test_steady_state_rejects_a_negative_repair_rate(self):
        with pytest.raises(ReliabilityError) as info:
            Component.steady_state("x", F(1, 2), mu=F(-2))
        assert str(info.value) == "component 'x': negative repair rate"
