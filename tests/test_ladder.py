"""Ladder networks: cell matrices, closed forms, oracle agreement."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relfreq.core
from relfreq.asymptotics import asymptotic_rate
from relfreq.core import Component, MultilinearPoly, ReliabilityError, single_pass
from relfreq.ladder import (
    LadderCell,
    LadderIdenticalParams,
    LadderSpec,
    TERMINAL_S,
    TERMINAL_T,
    build_ladder,
    cell_matrix_pair,
    entry_cell,
    identical_ladder_spec,
    ladder_closed_form,
    ladder_frequency,
    ladder_structure,
)
from relfreq.oracle import oracle_availability, oracle_frequency

from helpers import distinct_ladder_spec


def small_probs():
    return st.builds(F, st.integers(0, 10), st.just(10))


class TestCellMatrix:
    def test_shape_and_entries(self):
        cell = LadderCell(
            a=Component("a", F(1, 2), F(1)),
            b=Component("b", F(1, 3), F(2)),
            c=Component("c", F(1, 5), F(3)),
            S=Component("S", F(2, 3), F(4)),
            T=Component("T", F(3, 4), F(5)),
            index=1,
        )
        pair = cell_matrix_pair(cell)
        assert pair.shape == (3, 3)
        assign = {k: v for k, v in [("a", F(1, 2)), ("b", F(1, 3)), ("c", F(1, 5)), ("S", F(2, 3)), ("T", F(3, 4))]}
        a, b, c, S, T = assign["a"], assign["b"], assign["c"], assign["S"], assign["T"]
        expected = [
            [a * S, b * c * S * T, a * b * c * S * T],
            [a * b * S * T, c * T, a * b * c * S * T],
            [-a * b * S * T, -b * c * S * T, a * (1 - 2 * b) * c * S * T],
        ]
        entries = {(r, col): e for row in pair.m for r, col, e in row}
        assert len(entries) == 9
        for r in range(3):
            for col in range(3):
                assert entries[r, col].evaluate(assign) == expected[r][col]

    @pytest.mark.parametrize(
        "cell",
        [
            LadderCell(*(Component(x + "1", F(1, 2), F(1)) for x in "abcST"), index=1),
            entry_cell(Component("b0", F(1, 2), F(1)), Component("S0", F(2, 3), F(1)),
                       Component("T0", F(3, 4), F(1))),
        ],
        ids=["distinct", "entry"],
    )
    def test_entries_equal_their_product_form(self, cell):
        a, b, c, S, T = (MultilinearPoly.variable(x.id) for x in cell.components())
        one = MultilinearPoly.one()
        expected = [
            [a * S, b * c * S * T, a * b * c * S * T],
            [a * b * S * T, c * T, a * b * c * S * T],
            [-(a * b * S * T), -(b * c * S * T), a * (one - 2 * b) * c * S * T],
        ]
        entries = {(r, col): e for row in cell_matrix_pair(cell).m for r, col, e in row}
        assert entries == {
            (r, col): e for r, row in enumerate(expected) for col, e in enumerate(row)
        }

    @pytest.mark.parametrize("terminal", [TERMINAL_S, TERMINAL_T])
    def test_family_tags_shared_cells(self, terminal):
        params = LadderIdenticalParams(F(3, 4), F(9, 10), F(1), F(1), 3)
        shared = build_ladder(identical_ladder_spec(params, terminal))
        distinct = build_ladder(distinct_ladder_spec(F(3, 4), F(9, 10), F(1), F(1), 3, terminal))
        assert shared.family == f"ladder:3:{terminal}:shared"
        assert distinct.family == f"ladder:3:{terminal}"

    def test_cells_share_one_layout(self):
        system = build_ladder(distinct_ladder_spec(F(3, 4), F(9, 10), F(1), F(1), 3))
        pairs = list(system.pairs)
        assert len({id(pair) for pair in pairs}) == 4
        assert all(pair.layout is pairs[0].layout for pair in pairs)
        assert [len(pair.polys) for pair in pairs] == [8] * 4

    @pytest.mark.parametrize(
        "terminal, availability, frequency",
        [(TERMINAL_S, F(3, 5), F(9, 10)), (TERMINAL_T, F(3, 5), F(101, 100))],
    )
    def test_cell_whose_rail_and_rung_share_an_id(self, terminal, availability, frequency):
        # a and b of cell 1 are one edge e1, so p_e p_e = p_e: S1 is reached
        # with probability p_e rho_S1 = 3/5, not p_e^2 rho_S1
        e = Component("e1", F(2, 3), F(1))
        cells = (
            entry_cell(Component("b0", F(1, 2), F(1)), Component("S0", F(1)), Component("T0", F(1))),
            LadderCell(a=e, b=e, c=Component("c1", F(3, 4), F(2)),
                       S=Component("S1", F(9, 10), F(1, 2)), T=Component("T1", F(4, 5), F(1, 3)),
                       index=1),
        )
        assert cell_matrix_pair(cells[1]).ids == ("S1", "T1", "c1", "e1")
        report = single_pass(build_ladder(LadderSpec(cells, terminal)))
        assert (report.availability, report.frequency) == (availability, frequency)

    def test_entry_cell_validation(self):
        bad = LadderCell(
            a=Component("a0", F(1, 2), F(1)),
            b=Component("b0", F(1, 2), F(1)),
            c=Component("c0", F(0), F(0)),
            S=Component("S0", F(1), F(0)),
            T=Component("T0", F(1), F(0)),
        )
        with pytest.raises(ReliabilityError):
            LadderSpec((bad,), TERMINAL_T)

    def test_terminal_validation(self):
        cell0 = entry_cell(
            Component("b0", F(1, 2), F(1)),
            Component("S0", F(1), F(0)),
            Component("T0", F(1), F(0)),
        )
        with pytest.raises(ReliabilityError):
            LadderSpec((cell0,), "Un")


class TestSmallLaddersByHand:
    def test_n0_rung_only(self):
        # S0 -- b0 -- T0: reaching T0 needs rho * p * rho, reaching S0 needs rho
        p, rho, lam, xi = F(2, 3), F(4, 5), F(3), F(1, 2)
        params = LadderIdenticalParams(p, rho, lam, xi, 0)
        spec_t = identical_ladder_spec(params, TERMINAL_T)
        spec_s = identical_ladder_spec(params, TERMINAL_S)
        assert single_pass(build_ladder(spec_t)).availability == rho * p * rho
        assert single_pass(build_ladder(spec_s)).availability == rho
        # frequency of the 3-component series S0-b0-T0
        assert single_pass(build_ladder(spec_t)).frequency == (
            (lam + 2 * xi) * rho * p * rho
        )

    def test_n1_matches_oracle_all_quantities(self):
        p, rho, lam, xi = F(3, 5), F(9, 10), F(2), F(1, 3)
        for terminal in (TERMINAL_S, TERMINAL_T):
            spec = distinct_ladder_spec(p, rho, lam, xi, 1, terminal)
            system = build_ladder(spec)
            sf = ladder_structure(spec)
            pm = {c.id: c.p for c in system.components}
            rm = {c.id: c.lam for c in system.components}
            report = single_pass(system)
            assert report.availability == oracle_availability(sf, pm)
            assert report.frequency == oracle_frequency(sf, pm, rm)

    def test_n2_heterogeneous_vs_oracle(self):
        cells = [
            entry_cell(
                Component("b0", F(1, 2), F(1)),
                Component("S0", F(9, 10), F(1, 9)),
                Component("T0", F(8, 9), F(1, 8)),
            )
        ]
        vals = [
            (F(3, 4), F(2, 5), F(7, 10), F(19, 20), F(17, 20)),
            (F(2, 3), F(5, 6), F(1, 4), F(9, 10), F(11, 12)),
        ]
        for i, (pa, pb, pc, ps, pt) in enumerate(vals, start=1):
            cells.append(
                LadderCell(
                    a=Component(f"a{i}", pa, F(i)),
                    b=Component(f"b{i}", pb, F(i, 2)),
                    c=Component(f"c{i}", pc, F(i, 3)),
                    S=Component(f"S{i}", ps, F(1, i)),
                    T=Component(f"T{i}", pt, F(2, i)),
                    index=i,
                )
            )
        for terminal in (TERMINAL_S, TERMINAL_T):
            spec = LadderSpec(tuple(cells), terminal)
            system = build_ladder(spec)
            sf = ladder_structure(spec)
            pm = {c.id: c.p for c in system.components}
            rm = {c.id: c.lam for c in system.components}
            report = single_pass(system)
            assert report.availability == oracle_availability(sf, pm)
            assert report.frequency == oracle_frequency(sf, pm, rm)


class TestClosedForm:
    @given(
        st.builds(F, st.integers(1, 9), st.just(10)),
        st.builds(F, st.integers(1, 10), st.just(10)),
        st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_matrix_product(self, p, rho, n):
        params = LadderIdenticalParams(p, rho, F(1), F(1, 2), n)
        r_s, r_t = ladder_closed_form(params)
        a_s = ladder_frequency(params, TERMINAL_S).availability
        a_t = ladder_frequency(params, TERMINAL_T).availability
        assert r_s == a_s
        assert r_t == a_t

    def test_matches_pass_up_to_40_cells(self):
        for n in range(41):
            params = LadderIdenticalParams(F(9, 10), F(19, 20), F(1), F(1, 2), n)
            assert ladder_closed_form(params) == (
                ladder_frequency(params, TERMINAL_S).availability,
                ladder_frequency(params, TERMINAL_T).availability,
            )

    def test_terminal_gap_is_zeta0_power(self):
        p, rho, n = F(7, 10), F(19, 20), 5
        params = LadderIdenticalParams(p, rho, F(0), F(0), n)
        r_s, r_t = ladder_closed_form(params)
        zeta0 = p * rho * (1 - p * rho)
        assert r_s - r_t == zeta0 ** (n + 1) / p

    def test_degenerate_equal_eigenvalues(self):
        # rho = 0 collapses everything; p = 1 makes the pair coincide in
        # effect; both must run through the same recurrence without error
        params = LadderIdenticalParams(F(1), F(1), F(0), F(0), 4)
        r_s, r_t = ladder_closed_form(params)
        assert r_s == 1
        assert r_t == 1
        params0 = LadderIdenticalParams(F(1, 2), F(0), F(1), F(1), 3)
        assert ladder_closed_form(params0) == (0, 0)

    def test_approx_mode_close_to_exact(self):
        params = LadderIdenticalParams(F(9, 10), F(99, 100), F(1), F(1, 10), 12)
        r_s, r_t = ladder_closed_form(params)
        fr_s, fr_t = ladder_closed_form(params, mode="approx")
        assert fr_s == pytest.approx(float(r_s), rel=1e-12)
        assert fr_t == pytest.approx(float(r_t), rel=1e-12)

    def test_matches_oracle_small(self):
        p, rho = F(4, 5), F(9, 10)
        for n in (0, 1, 2):
            params = LadderIdenticalParams(p, rho, F(1), F(1), n)
            r_s, r_t = ladder_closed_form(params)
            for terminal, want in ((TERMINAL_S, r_s), (TERMINAL_T, r_t)):
                spec = distinct_ladder_spec(p, rho, F(1), F(1), n, terminal)
                sf = ladder_structure(spec)
                pm = {c.id: c.p for c in build_ladder(spec).components}
                assert oracle_availability(sf, pm) == want


class TestFrequency:
    def test_identical_vs_distinct_ids(self):
        # the shared-cell speedup must give the same numbers as fully
        # distinct component ids
        p, rho, lam, xi, n = F(3, 4), F(9, 10), F(2, 3), F(1, 5), 3
        params = LadderIdenticalParams(p, rho, lam, xi, n)
        for terminal in (TERMINAL_S, TERMINAL_T):
            shared = ladder_frequency(params, terminal)
            distinct = single_pass(
                build_ladder(distinct_ladder_spec(p, rho, lam, xi, n, terminal))
            )
            assert shared.availability == distinct.availability
            assert shared.frequency == distinct.frequency

    def test_frequency_vs_oracle_n2(self):
        p, rho, lam, xi, n = F(1, 2), F(4, 5), F(3), F(1, 2), 2
        spec = distinct_ladder_spec(p, rho, lam, xi, n, TERMINAL_T)
        system = build_ladder(spec)
        sf = ladder_structure(spec)
        pm = {c.id: c.p for c in system.components}
        rm = {c.id: c.lam for c in system.components}
        assert single_pass(system).frequency == oracle_frequency(sf, pm, rm)

    def test_zero_rates_give_zero_frequency(self):
        params = LadderIdenticalParams(F(1, 2), F(9, 10), F(0), F(0), 4)
        assert ladder_frequency(params, TERMINAL_T).frequency == 0

    def test_long_chain_runs(self):
        params = LadderIdenticalParams(F(9, 10), F(1), F(1), F(0), 500)
        report = ladder_frequency(params, TERMINAL_T, mode="approx")
        assert 0 < report.availability < 1
        assert report.frequency > 0


class TestPoweredRuns:
    @pytest.mark.parametrize("p", [F(9, 10), F(19, 20)])
    def test_approx_within_1e_10_of_exact(self, p):
        params = LadderIdenticalParams(p, F(1), F(1), F(0), 2000)
        exact = ladder_frequency(params, TERMINAL_T)
        approx = ladder_frequency(params, TERMINAL_T, mode="approx")
        assert approx.availability == pytest.approx(float(exact.availability), rel=1e-10)
        assert approx.frequency == pytest.approx(float(exact.frequency), rel=1e-10)
        assert approx.log10_availability == pytest.approx(exact.log10_availability, abs=1e-10)

    @pytest.mark.parametrize("n", [10**6, 10**12])
    def test_long_run_advances_in_logarithmically_many_steps(self, monkeypatch, n):
        advance = relfreq.core._advance
        calls = []

        def counted(step, a, v):
            calls.append(step)
            return advance(step, a, v)

        monkeypatch.setattr(relfreq.core, "_advance", counted)
        params = LadderIdenticalParams(0.9, 1.0, 1.0, 0.0, n)
        system = build_ladder(identical_ladder_spec(params, TERMINAL_T))
        # the chain is held as two runs, cell 0 and n shared cells, never expanded
        assert len(system.pairs) == n + 1
        assert len(system.pairs.runs) == 2
        report = single_pass(system, mode="approx")
        assert len(calls) <= 2 * n.bit_length()
        assert report.failure_rate == pytest.approx(asymptotic_rate(0.9, n, 1.0), rel=1e-6)
