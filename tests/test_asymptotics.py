"""Eigenvalues, logarithmic derivatives, limits, and minimal cuts."""

import math
from fractions import Fraction as F

import pytest

from relfreq.asymptotics import (
    AsymptoticsError,
    asymptotic_rate,
    discriminant,
    dominant_amplitude,
    eigenvalues,
    first_order_rate,
    ladder_asymptotics,
    log_derivative_maxima,
    log_derivatives,
    minimal_cuts_size2,
)
from relfreq.ladder import (
    LadderIdenticalParams,
    TERMINAL_S,
    TERMINAL_T,
    eigen_symmetric_parts,
    ladder_closed_form,
    ladder_frequency,
)
from relfreq.oracle import connectivity_structure


class TestEigenvalues:
    def test_satisfy_characteristic_quadratic(self):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            for rho in (1.0, 0.95, 0.8):
                _, zp, zm = eigenvalues(p, rho)
                _, t, d = eigen_symmetric_parts(F(p).limit_denominator(100),
                                                F(rho).limit_denominator(100))
                # check against the float symmetric functions directly
                tf = p * rho * (1 + 2 * p * (1 - p) * rho)
                df = (p * rho) ** 2 * (
                    (1 + 2 * p * (1 - p) * rho) ** 2 - discriminant(p, rho)
                ) / 4
                assert zp + zm == pytest.approx(tf, abs=1e-12)
                assert zp * zm == pytest.approx(df, abs=1e-12)

    def test_ordering_and_positivity(self):
        for p in (0.2, 0.5, 0.8):
            zeta0, zp, zm = eigenvalues(p)
            assert zp > zeta0 > 0
            assert zp > abs(zm)

    def test_out_of_range(self):
        with pytest.raises(AsymptoticsError):
            eigenvalues(1.2)

    def test_closed_form_growth_matches_zeta_plus(self):
        # R_T(n+1)/R_T(n) -> zeta+ for large n
        p = 0.85
        _, zp, _ = eigenvalues(p)
        params_a = LadderIdenticalParams(p, 1.0, 0.0, 0.0, 80)
        params_b = LadderIdenticalParams(p, 1.0, 0.0, 0.0, 81)
        _, ra = ladder_closed_form(params_a, mode="approx")
        _, rb = ladder_closed_form(params_b, mode="approx")
        assert rb / ra == pytest.approx(zp, rel=1e-10)


class TestLogDerivatives:
    def test_numeric_derivative_of_zeta_plus(self):
        for p in (0.2, 0.4, 0.6, 0.8):
            d_zeta, _ = log_derivatives(p)
            h = 1e-7
            zp_hi = eigenvalues(p * (1 + h))[1]
            zp_lo = eigenvalues(p * (1 - h))[1]
            numeric = (math.log(zp_hi) - math.log(zp_lo)) / (2 * h)
            assert d_zeta == pytest.approx(numeric, rel=1e-5)

    def test_numeric_derivative_of_alpha_plus(self):
        for p in (0.3, 0.5, 0.7):
            _, d_alpha = log_derivatives(p)
            h = 1e-6
            a_hi = dominant_amplitude(p * (1 + h))
            a_lo = dominant_amplitude(p * (1 - h))
            numeric = (math.log(a_hi) - math.log(a_lo)) / (2 * h)
            assert d_alpha == pytest.approx(numeric, rel=1e-4)

    def test_domain(self):
        with pytest.raises(AsymptoticsError):
            log_derivatives(0.0)
        with pytest.raises(AsymptoticsError):
            log_derivatives(1.0)

    def test_maxima_locations_and_values(self):
        maxima = log_derivative_maxima()
        p_z, v_z = maxima["zeta"]
        p_a, v_a = maxima["alpha"]
        assert p_z == pytest.approx(0.251641, abs=1e-4)
        assert v_z == pytest.approx(1.13827, abs=1e-4)
        assert p_a == pytest.approx(0.709902, abs=1e-4)
        assert v_a == pytest.approx(0.458825, abs=1e-4)


class TestAsymptoticRate:
    def test_slope_matches_exact_difference(self):
        # lam_bar(n+1) - lam_bar(n) -> lam * dln zeta / dln p
        p, lam = F(9, 10), F(1)
        d_zeta, _ = log_derivatives(0.9)
        r400 = ladder_frequency(
            LadderIdenticalParams(p, F(1), lam, F(0), 400), TERMINAL_T, mode="approx"
        )
        r401 = ladder_frequency(
            LadderIdenticalParams(p, F(1), lam, F(0), 401), TERMINAL_T, mode="approx"
        )
        slope = r401.failure_rate - r400.failure_rate
        assert slope == pytest.approx(d_zeta, rel=1e-6)

    def test_intercept_and_slope_vs_exact_rate(self):
        p, lam, n = F(9, 10), F(1), 200
        exact = ladder_frequency(
            LadderIdenticalParams(p, F(1), lam, F(0), n), TERMINAL_T, mode="approx"
        ).failure_rate
        assert asymptotic_rate(0.9, n, 1.0) == pytest.approx(exact, rel=1e-3)

    def test_first_order_limit_s_terminal(self):
        q = F(1, 10**8)
        p = 1 - q
        for n in (1, 5, 20):
            report = ladder_frequency(
                LadderIdenticalParams(p, F(1), F(1), F(0), n), TERMINAL_S
            )
            ratio = report.failure_rate / F(first_order_rate(n, 1, 1)) / q
            assert abs(float(ratio) - 1) < 1e-5

    def test_first_order_formula(self):
        assert first_order_rate(3, 2.0, 0.01) == pytest.approx(0.2)


class TestMinimalCuts:
    def test_counts_match_first_order_coefficient(self):
        # each size-2 cut contributes two failure transitions, so the
        # first-order coefficient 2n+4 equals twice the number of cuts
        for n in (1, 2, 3, 4):
            cuts = minimal_cuts_size2(n, terminal="S")
            assert 2 * len(cuts) == 2 * n + 4

    def test_cuts_actually_disconnect(self):
        n = 3
        # the n-cell ladder with perfect nodes, written out independently
        edges = [("b0", "S0", "T0")]
        for i in range(1, n + 1):
            edges.append((f"a{i}", f"S{i-1}", f"S{i}"))
            edges.append((f"c{i}", f"T{i-1}", f"T{i}"))
            edges.append((f"b{i}", f"S{i}", f"T{i}"))
        ids = [e[0] for e in edges]
        nodes = [f"{x}{i}" for i in range(n + 1) for x in "ST"]
        sf = connectivity_structure(ids, nodes, edges, "S0", f"S{n}")

        def connected(removed):
            return sf({eid: eid not in removed for eid in ids})

        for cut in minimal_cuts_size2(n, terminal="S"):
            assert not connected(cut)
            for eid in cut:
                assert connected({eid})

    def test_t_terminal_has_extra_cut(self):
        s_cuts = set(minimal_cuts_size2(1, terminal="S"))
        t_cuts = set(minimal_cuts_size2(1, terminal="T"))
        assert frozenset({"b0", "b1"}) in t_cuts
        assert frozenset({"b0", "b1"}) not in s_cuts

    def test_bad_terminal(self):
        with pytest.raises(AsymptoticsError):
            minimal_cuts_size2(2, terminal="X")


class TestBundle:
    def test_ladder_asymptotics_consistency(self):
        info = ladder_asymptotics(0.6)
        zeta0, zp, zm = eigenvalues(0.6)
        assert info.zeta_plus == zp
        assert info.zeta0 == zeta0
        assert info.alpha_plus == pytest.approx(dominant_amplitude(0.6), rel=1e-12)
