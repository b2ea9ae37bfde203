"""Generating functions: series extraction, operator identities, recurrence."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfreq.genfunc import (
    GenfuncError,
    RationalGF,
    UniPoly,
    gf_equal,
    gf_kofn_g,
    gf_kofn_g_freq,
    gf_lincon_f,
    kofn_recurrence_check,
    series_coeffs,
    series_operator,
)
from relfreq.kofn import (
    KofnSpec,
    build_kofn_g,
    build_lincon_f,
    identical_components,
    kofn_availability,
)
from relfreq.core import ReliabilityError, single_pass

P_POINTS = [F(1, 10), F(1, 4), F(1, 3), F(1, 2), F(3, 5), F(7, 10), F(9, 10)]


class TestUniPoly:
    def test_arithmetic(self):
        p = UniPoly.p()
        f = (1 - p) ** 2 * 3 + p
        assert f(F(1, 2)) == 3 * F(1, 4) + F(1, 2)

    def test_p_dp(self):
        p = UniPoly.p()
        f = p**3 + 2 * p - 5
        assert f.p_dp() == 3 * p**3 + 2 * p

    def test_trailing_zeros_trimmed(self):
        assert UniPoly([1, 2, 0, 0]).coeffs == (F(1), F(2))

    def test_negative_power_rejected(self):
        with pytest.raises(GenfuncError):
            UniPoly.p() ** -1


class TestSeriesExtraction:
    def test_geometric(self):
        gf = RationalGF(num=(UniPoly([1]),), den=(UniPoly([1]), UniPoly([-1])))
        coeffs = series_coeffs(gf, 5)
        assert all(c == UniPoly([1]) for c in coeffs)

    def test_kofn_coefficients_match_closed_form(self):
        for k in range(0, 5):
            coeffs = series_coeffs(gf_kofn_g(k), 12)
            for n in range(13):
                for p in (F(1, 3), F(2, 3)):
                    want = kofn_availability(k, n, p) if n >= k or k == 0 else F(0)
                    if k > n:
                        want = F(0) if k > 0 else F(1)
                    assert coeffs[n](p) == want

    def test_kofn_coefficients_match_matrices(self):
        p, lam = F(2, 5), F(3, 2)
        for k in (1, 2, 3):
            coeffs = series_coeffs(gf_kofn_g(k), 8)
            fcoeffs = series_coeffs(gf_kofn_g_freq(k, lam), 8)
            for n in range(k, 9):
                report = single_pass(
                    build_kofn_g(KofnSpec(k, identical_components(n, p, lam=lam)))
                )
                assert coeffs[n](p) == report.availability
                assert fcoeffs[n](p) == report.frequency

    def test_lincon_coefficients_match_matrices(self):
        p = F(3, 10)
        for k in (1, 2, 3):
            coeffs = series_coeffs(gf_lincon_f(k), 9)
            for n in range(1, 10):
                report = single_pass(
                    build_lincon_f(
                        KofnSpec(
                            min(k, n),
                            identical_components(n, p, lam=F(1)),
                        )
                    )
                )
                if n >= k:
                    assert coeffs[n](p) == report.availability

    def test_negative_n_rejected(self):
        with pytest.raises(GenfuncError):
            series_coeffs(gf_kofn_g(1), -1)

    def test_zero_constant_denominator_rejected(self):
        with pytest.raises(GenfuncError):
            RationalGF(num=(UniPoly([1]),), den=(UniPoly(), UniPoly([1])))


class TestOperatorIdentity:
    def test_gf_level_identity(self):
        # applying the operator to the availability series must reproduce
        # the closed-form frequency series, as rational functions
        for k in (1, 2, 3, 4):
            lhs = series_operator(gf_kofn_g(k), lam=F(5, 3))
            rhs = gf_kofn_g_freq(k, lam=F(5, 3))
            assert gf_equal(lhs, rhs)

    def test_termwise_matches_gf_series(self):
        k, lam = 3, F(2, 7)
        direct = series_coeffs(gf_kofn_g_freq(k, lam), 15)
        termwise = series_operator(series_coeffs(gf_kofn_g(k), 15), lam)
        assert direct == termwise

    def test_lincon_frequency_via_operator(self):
        p, lam = F(1, 4), F(2)
        k = 2
        fcoeffs = series_operator(series_coeffs(gf_lincon_f(k), 7), lam)
        for n in range(k, 8):
            report = single_pass(
                build_lincon_f(
                    KofnSpec(
                        k,
                        identical_components(n, p, lam=lam),
                    )
                )
            )
            assert fcoeffs[n](p) == report.frequency

    def test_operator_linearity_on_gf(self):
        gf = gf_kofn_g(2)
        twice = series_operator(gf, lam=F(2))
        once = series_operator(gf, lam=F(1))
        assert gf_equal(
            twice,
            RationalGF(num=once.num * 2, den=once.den),
        )


class TestRecurrence:
    @given(st.integers(1, 8), st.integers(0, 20), st.sampled_from(P_POINTS))
    @settings(max_examples=80, deadline=None)
    def test_pascal_style_recurrence(self, k, extra, p):
        n = k + extra
        assert kofn_recurrence_check(k, n, p)

    def test_boundary_conventions(self):
        assert kofn_availability(0, 0, F(1, 2)) == 1
        assert kofn_availability(0, 7, F(1, 2)) == 1
        assert kofn_availability(3, 2, F(1, 2)) == 0

    def test_invalid_args(self):
        with pytest.raises(GenfuncError):
            kofn_recurrence_check(0, 3, F(1, 2))
        with pytest.raises(ReliabilityError):
            kofn_availability(-1, 2, F(1, 2))
