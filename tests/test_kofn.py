"""k-out-of-n:G and consecutive-k builders against worked examples, closed
forms, and the brute-force oracle."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfreq.core import Component, ReliabilityError, apply_rate_operator, single_pass
from relfreq.kofn import KofnSpec, build_kofn_g, build_lincon_f, identical_kofn_spec
from relfreq.oracle import (
    kofn_g_structure,
    lincon_f_structure,
    oracle_availability,
    oracle_frequency,
)

from helpers import (
    distinct_identical_components,
    example_7_2_components,
    kofn_g_identical,
    lincon_4_11_components,
)


class TestKofnG:
    def test_worked_5_of_8(self):
        system = build_kofn_g(KofnSpec(5, example_7_2_components()))
        report = single_pass(system)
        assert report.availability == F(615925280183, 625000000000)
        assert report.frequency == F(8012914359, 156250000000)
        assert float(report.failure_rate) == pytest.approx(0.0520382, abs=1e-7)

    def test_matrix_shapes_and_prime_entries(self):
        comps = distinct_identical_components(3, F(1, 2), lam=F(2))
        system = build_kofn_g(KofnSpec(2, comps))
        pair = tuple(system.pairs)[0]
        assert pair.dim == 2
        cid = comps[0].id
        lam_p = F(2) * F(1, 2)
        assign = {cid: F(1, 2)}
        m_prime = {(r, c): apply_rate_operator(e, {cid: F(2)}) for row in pair.m for r, c, e in row}
        # diagonal -lam p, superdiagonal +lam p
        assert m_prime[0, 0].evaluate(assign) == -lam_p
        assert m_prime[0, 1].evaluate(assign) == lam_p
        assert m_prime[1, 1].evaluate(assign) == -lam_p

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_pairs_store_only_the_2k_minus_1_nonzeros(self, k):
        comps = distinct_identical_components(k + 2, F(2, 3), lam=F(3))
        for system in (
            build_kofn_g(KofnSpec(k, comps)),
            build_lincon_f(KofnSpec(k, comps)),
        ):
            rates = {c.id: c.lam for c in comps}
            for pair in system.pairs:
                images = [apply_rate_operator(e.poly, rates) for row in pair.m for e in row]
                nonzeros = [sum(map(len, pair.m)), sum(not x.is_zero() for x in images)]
                assert nonzeros == [2 * k - 1, 2 * k - 1]

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_pairs_share_one_layout_and_hold_two_polys(self, k):
        comps = distinct_identical_components(k + 2, F(2, 3), lam=F(3))
        for system in (
            build_kofn_g(KofnSpec(k, comps)),
            build_lincon_f(KofnSpec(k, comps)),
        ):
            layout = tuple(system.pairs)[0].layout
            assert all(pair.layout is layout for pair in system.pairs)
            assert [len(pair.layout.polys) for pair in system.pairs] == [min(k, 2)] * (k + 2)

    def test_one_layout_per_family_and_k(self):
        # systems of one family and k share the layout object; pairs stay
        # distinct, so each system's fold compiles its own
        comps = distinct_identical_components(5, F(2, 3), lam=F(3))
        others = tuple(Component(f"d{i}", F(1, 4), F(1)) for i in range(4))
        layouts = {}
        for build in (build_kofn_g, build_lincon_f):
            for k in (2, 3):
                first, second = build(KofnSpec(k, comps)), build(KofnSpec(k, others))
                assert tuple(first.pairs)[0].layout is tuple(second.pairs)[0].layout
                assert tuple(first.pairs)[0] is not tuple(second.pairs)[0]
                layouts[build, k] = tuple(first.pairs)[0].layout
        assert len({id(layout) for layout in layouts.values()}) == 4

    def test_series_when_k_equals_n(self):
        comps = tuple(
            Component(f"c{i}", F(i, i + 1), F(1, i)) for i in (1, 2, 3, 4)
        )
        report = single_pass(build_kofn_g(KofnSpec(4, comps)))
        prod = F(1)
        lam_sum = F(0)
        for c in comps:
            prod *= c.p
            lam_sum += c.lam
        assert report.availability == prod
        assert report.frequency == lam_sum * prod

    def test_parallel_when_k_is_one(self):
        comps = tuple(Component(f"c{i}", F(i, 5), F(i)) for i in (1, 2, 3))
        report = single_pass(build_kofn_g(KofnSpec(1, comps)))
        q_prod = F(1)
        for c in comps:
            q_prod *= 1 - c.p
        assert report.availability == 1 - q_prod
        sf = kofn_g_structure([c.id for c in comps], 1)
        assert report.frequency == oracle_frequency(
            sf, {c.id: c.p for c in comps}, {c.id: c.lam for c in comps}
        )

    def test_k_out_of_range(self):
        comps = distinct_identical_components(3, F(1, 2), lam=0)
        with pytest.raises(ReliabilityError):
            KofnSpec(4, comps)
        with pytest.raises(ReliabilityError):
            KofnSpec(0, comps)

    def test_oracle_equivalence_grid(self):
        probs = [F(1, 3), F(2, 3), F(9, 10), F(1, 4), F(3, 5), F(1, 2)]
        for n in range(1, 7):
            comps = tuple(
                Component(f"c{i}", probs[i - 1], F(i, 3)) for i in range(1, n + 1)
            )
            pm = {c.id: c.p for c in comps}
            rm = {c.id: c.lam for c in comps}
            for k in range(1, n + 1):
                report = single_pass(build_kofn_g(KofnSpec(k, comps)))
                sf = kofn_g_structure([c.id for c in comps], k)
                assert report.availability == oracle_availability(sf, pm)
                assert report.frequency == oracle_frequency(sf, pm, rm)

    def test_monotone_in_k(self):
        comps = tuple(Component(f"c{i}", F(2, 3), F(1)) for i in range(1, 7))
        avails = [
            single_pass(build_kofn_g(KofnSpec(k, comps))).availability
            for k in range(1, 7)
        ]
        assert all(a >= b for a, b in zip(avails, avails[1:]))


class TestLinConF:
    def test_worked_4_of_11(self):
        system = build_lincon_f(KofnSpec(4, lincon_4_11_components()))
        report = single_pass(system)
        assert report.availability == F(30105385968617, 30517578125000)
        # independently confirmed by the oracle; the decimal is 0.050953
        assert report.frequency == F(155495836041, 3051757812500)
        assert float(report.frequency) == pytest.approx(0.050953, abs=1e-6)
        assert float(report.failure_rate) == pytest.approx(0.0516505, abs=1e-7)

    def test_worked_4_of_11_against_oracle(self):
        comps = lincon_4_11_components()
        report = single_pass(
            build_lincon_f(KofnSpec(4, comps))
        )
        sf = lincon_f_structure([c.id for c in comps], 4)
        pm = {c.id: c.p for c in comps}
        rm = {c.id: c.lam for c in comps}
        assert report.availability == oracle_availability(sf, pm)
        assert report.frequency == oracle_frequency(sf, pm, rm)

    def test_k_one_is_series(self):
        comps = tuple(Component(f"c{i}", F(i, 6), F(1)) for i in (1, 2, 3))
        report = single_pass(
            build_lincon_f(KofnSpec(1, comps))
        )
        assert report.availability == F(1, 6) * F(2, 6) * F(3, 6)

    def test_oracle_equivalence_random_rationals(self):
        comps = tuple(
            Component(f"c{i}", p, lam)
            for i, (p, lam) in enumerate(
                [(F(1, 3), F(1)), (F(4, 5), F(2, 3)), (F(1, 2), F(5)), (F(7, 9), F(1, 4))],
                start=1,
            )
        )
        report = single_pass(
            build_lincon_f(KofnSpec(2, comps))
        )
        sf = lincon_f_structure([c.id for c in comps], 2)
        pm = {c.id: c.p for c in comps}
        rm = {c.id: c.lam for c in comps}
        assert report.availability == oracle_availability(sf, pm)
        assert report.frequency == oracle_frequency(sf, pm, rm)

    def test_order_matters_for_consecutive(self):
        base = [
            Component("c1", F(1, 10), F(1)),
            Component("c2", F(1, 10), F(1)),
            Component("c3", F(9, 10), F(1)),
            Component("c4", F(1, 10), F(1)),
        ]
        shuffled = [base[0], base[1], base[3], base[2]]
        a1 = single_pass(
            build_lincon_f(KofnSpec(2, tuple(base)))
        ).availability
        a2 = single_pass(
            build_lincon_f(KofnSpec(2, tuple(shuffled)))
        ).availability
        assert a1 != a2

    def test_monotone_in_k(self):
        comps = tuple(Component(f"c{i}", F(1, 3), F(1)) for i in range(1, 7))
        avails = [
            single_pass(
                build_lincon_f(KofnSpec(k, comps))
            ).availability
            for k in range(1, 7)
        ]
        assert all(a <= b for a, b in zip(avails, avails[1:]))

    def test_families_agree_on_series(self):
        comps = tuple(Component(f"c{i}", F(i, 5), F(i, 2)) for i in (1, 2, 3))
        g = single_pass(build_kofn_g(KofnSpec(3, comps)))
        f = single_pass(build_lincon_f(KofnSpec(1, comps)))
        assert g.availability == f.availability
        assert g.frequency == f.frequency


class TestIdenticalClosedForm:
    def test_one_of_two(self):
        p, lam = F(2, 5), F(3)
        a, nu = kofn_g_identical(1, 2, p, lam)
        assert a == 1 - (1 - p) ** 2
        assert nu == 2 * lam * p * (1 - p)

    def test_series_case(self):
        p, lam = F(3, 4), F(2)
        _, nu = kofn_g_identical(4, 4, p, lam)
        assert nu == lam * 4 * p**4

    def test_matches_transfer_matrix(self):
        p, lam = F(9, 10), F(1, 9)
        a, nu = kofn_g_identical(5, 8, p, lam)
        comps = distinct_identical_components(8, p, lam=lam)
        report = single_pass(build_kofn_g(KofnSpec(5, comps)))
        assert a == report.availability
        assert nu == report.frequency

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, k, extra, pnum):
        n = k + extra - 1
        p = F(pnum, 10)
        a, nu = kofn_g_identical(k, n, p, F(1))
        ids = [f"c{i}" for i in range(n)]
        sf = kofn_g_structure(ids, k)
        pm = {i: p for i in ids}
        rm = {i: F(1) for i in ids}
        assert a == oracle_availability(sf, pm)
        assert nu == oracle_frequency(sf, pm, rm)

    @pytest.mark.parametrize("p", [F(0), F(1, 2), F(1)])
    def test_equals_the_pass_for_every_p(self, p):
        # at p = 1 a component never fails, so both specs give it rate 0
        for n in range(1, 5):
            comps = distinct_identical_components(n, p, lam=F(3))
            for k in range(1, n + 1):
                closed = kofn_g_identical(k, n, p, F(3))
                for spec in (KofnSpec(k, comps), identical_kofn_spec(k, n, p, F(3))):
                    report = single_pass(build_kofn_g(spec))
                    assert closed == (report.availability, report.frequency)

    def test_negative_rate_rejected(self):
        with pytest.raises(ReliabilityError):
            kofn_g_identical(2, 3, F(1, 2), F(-1))


class TestIdenticalRun:
    """n identical components as one run of one component object, against
    n distinct ids with equal values."""

    @pytest.mark.parametrize("build", [build_kofn_g, build_lincon_f], ids=["kofn-g", "lincon-f"])
    @pytest.mark.parametrize("k, n", [(1, 1), (3, 10), (5, 40), (10, 30)])
    @pytest.mark.parametrize("p", [F(0), F(1, 3), F(9, 10), F(1)])
    def test_run_equals_distinct_ids(self, build, k, n, p):
        run = build(identical_kofn_spec(k, n, p, F(3, 2)))
        distinct = build(KofnSpec(k, distinct_identical_components(n, p, F(3, 2))))
        assert len(run.pairs.runs) == 1 and run.pairs.length == n
        assert single_pass(run) == single_pass(distinct)

    def test_each_position_is_an_independent_component(self):
        # one object at positions 1 and 3 of a line is two identical
        # components, not one component seen twice
        c, d = Component("c", F(1, 3), F(2)), Component("d", F(3, 4), F(1))
        shared = KofnSpec(2, (c, d, c))
        distinct = KofnSpec(2, (Component("c1", c.p, c.lam), d, Component("c3", c.p, c.lam)))
        for build in (build_kofn_g, build_lincon_f):
            assert len(build(shared).components) == 2
            assert single_pass(build(shared)) == single_pass(build(distinct))

    def test_spec_rejects_two_objects_sharing_an_id(self):
        c = Component("c", F(1, 2), F(1))
        assert KofnSpec(2, (c, c, c)).components.runs == ((c, 3),)
        with pytest.raises(ReliabilityError, match="ids must be distinct"):
            KofnSpec(1, (c, Component("c", F(1, 2), F(1))))
        with pytest.raises(ReliabilityError, match="ids must be distinct"):
            KofnSpec(1, (c, Component("d", F(1, 2)), Component("c", F(1, 3))))

    def test_spec_of_no_components_is_rejected(self):
        with pytest.raises(ReliabilityError, match="at least one component"):
            identical_kofn_spec(1, 0, F(1, 2), F(1))

    @pytest.mark.parametrize("args, message", [
        ((2, 5, "x", 1), "p='x' is not a number"),
        ((2, 5, "0.9", None), "lam=None is not a number"),
        ((2, 2.5, "0.9", 1), "n=2.5 is not an integer"),
        ((2.5, 5, "0.9", 1), "k=2.5 is not an integer"),
    ])
    def test_identical_spec_names_a_value_that_does_not_read(self, args, message):
        with pytest.raises(ReliabilityError) as info:
            identical_kofn_spec(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("k, message", [(2.5, "k=2.5 is not an integer"), ("2", "k='2' is not an integer")])
    def test_spec_names_a_k_that_does_not_read(self, k, message):
        comps = distinct_identical_components(3, F(1, 2), F(1))
        with pytest.raises(ReliabilityError) as info:
            KofnSpec(k, comps)
        assert str(info.value) == message


class TestHighlyReliable:
    def test_approx_unavailability_is_the_chain_product(self):
        # 1 - A cancels to 0.0 in floats; U read off the chain does not
        comps = distinct_identical_components(3, 1 - F(1, 10**9), lam=F(1))
        system = build_kofn_g(KofnSpec(2, comps))
        exact = single_pass(system).unavailability
        approx = single_pass(system, mode="approx").unavailability
        assert approx > 0
        assert approx == pytest.approx(float(exact), rel=1e-6)


class TestDegenerateAvailabilities:
    def test_absent_component_rate_is_irrelevant(self):
        # p=0 with different rates must not change anything
        for lam in (F(0), F(7), F(100)):
            comps = (
                Component("c1", F(1, 2), F(1)),
                Component("c2", F(0), lam),
                Component("c3", F(2, 3), F(2)),
            )
            report = single_pass(build_kofn_g(KofnSpec(1, comps)))
            if lam == 0:
                baseline = report
            else:
                assert report.availability == baseline.availability
                assert report.frequency == baseline.frequency

    def test_perfect_component_in_system(self):
        comps = (
            Component("c1", F(1), F(0)),
            Component("c2", F(1, 2), F(3)),
        )
        report = single_pass(build_kofn_g(KofnSpec(2, comps)))
        assert report.availability == F(1, 2)
        assert report.frequency == F(3) * F(1, 2)
