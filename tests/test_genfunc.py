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
    series_coeffs,
    series_operator,
    transfer_gf,
)
from relfreq.kofn import build_kofn_g, build_lincon_f, identical_kofn_spec
from relfreq.core import MatrixPair, ReliabilityError, TransferSystem, single_pass
from relfreq.ladder import (
    TERMINAL_S,
    TERMINAL_T,
    LadderIdenticalParams,
    build_ladder,
    eigen_symmetric_parts,
    identical_ladder_spec,
)

from helpers import (
    P,
    family_gf,
    gf_kofn_g,
    gf_kofn_g_freq,
    gf_lincon_f,
    kofn_availability,
    ladder_gf,
)

P_POINTS = [F(1, 10), F(1, 4), F(1, 3), F(1, 2), F(3, 5), F(7, 10), F(9, 10)]


class TestUniPoly:
    def test_arithmetic(self):
        p = UniPoly([0, 1])
        f = (1 - p) ** 2 * 3 + p
        assert f(F(1, 2)) == 3 * F(1, 4) + F(1, 2)

    def test_p_dp(self):
        p = UniPoly([0, 1])
        f = p**3 + 2 * p - 5
        assert f.p_dp() == 3 * p**3 + 2 * p

    def test_trailing_zeros_trimmed(self):
        assert UniPoly([1, 2, 0, 0]).coeffs == (F(1), F(2))

    def test_negative_power_rejected(self):
        with pytest.raises(GenfuncError):
            UniPoly([0, 1]) ** -1


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
                report = single_pass(build_kofn_g(identical_kofn_spec(k, n, p, lam)))
                assert coeffs[n](p) == report.availability
                assert fcoeffs[n](p) == report.frequency

    def test_lincon_coefficients_match_matrices(self):
        p = F(3, 10)
        for k in (1, 2, 3):
            coeffs = series_coeffs(gf_lincon_f(k), 9)
            for n in range(1, 10):
                report = single_pass(build_lincon_f(identical_kofn_spec(min(k, n), n, p, F(1))))
                if n >= k:
                    assert coeffs[n](p) == report.availability

    def test_negative_n_rejected(self):
        with pytest.raises(GenfuncError):
            series_coeffs(gf_kofn_g(1), -1)

    def test_zero_constant_denominator_rejected(self):
        with pytest.raises(GenfuncError):
            RationalGF(num=(UniPoly([1]),), den=(UniPoly(), UniPoly([1])))

    def test_denominator_constant_term_in_p_rejected(self):
        with pytest.raises(GenfuncError, match="denominator constant term must be a nonzero constant in p"):
            RationalGF(num=(UniPoly([1]),), den=(UniPoly([0, 1]), UniPoly([1])))


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
            report = single_pass(build_lincon_f(identical_kofn_spec(k, n, p, lam)))
            assert fcoeffs[n](p) == report.frequency

    def test_operator_linearity_on_gf(self):
        gf = gf_kofn_g(2)
        twice = series_operator(gf, lam=F(2))
        once = series_operator(gf, lam=F(1))
        assert gf_equal(
            twice,
            RationalGF(num=once.num * 2, den=once.den),
        )


class TestTransferGF:
    """transfer_gf derives each family's series from its builder's matrix."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_published_forms(self, k):
        derived = family_gf(build_kofn_g, k)
        assert gf_equal(derived, gf_kofn_g(k))
        assert gf_equal(series_operator(derived, F(5, 3)), gf_kofn_g_freq(k, F(5, 3)))
        assert gf_equal(family_gf(build_lincon_f, k), gf_lincon_f(k))

    @pytest.mark.parametrize("rho", [F(1), F(4, 5)])
    @pytest.mark.parametrize("terminal", [TERMINAL_S, TERMINAL_T])
    def test_ladder_series_matches_the_pass(self, rho, terminal):
        gf = ladder_gf(rho, terminal)
        coeffs = series_coeffs(gf, 40)
        # the frequency series with node rate xi = 0, the nodes being constants
        fcoeffs = series_coeffs(series_operator(gf, F(3, 2)), 20)
        for p in (F(3, 5), F(2, 7)):
            for n in range(41):
                params = LadderIdenticalParams(p, rho, F(3, 2), 0, n)
                report = single_pass(build_ladder(identical_ladder_spec(params, terminal)))
                assert coeffs[n](p) == report.availability
                if n <= 20:
                    assert fcoeffs[n](p) == report.frequency

    @pytest.mark.parametrize("rho", [F(1), F(4, 5)])
    @pytest.mark.parametrize("terminal", [TERMINAL_S, TERMINAL_T])
    def test_ladder_denominator_is_the_eigenvalue_product(self, rho, terminal):
        # det(I - zM) = (1 - zeta0 z)(1 - t z + d z^2)
        zeta0, t, d = eigen_symmetric_parts(P, rho)
        assert ladder_gf(rho, terminal).den.coeffs == (
            UniPoly([1]), -(zeta0 + t), zeta0 * t + d, -zeta0 * d
        )

    def test_custom_pair_with_offset_and_sign(self):
        # an earlier pair sets w; the repeated pair mixes p and constants
        first = MatrixPair.from_entries(2, [(0, 0, {("x",): 1}), (1, 0, {(): F(1, 3)}),
                                            (1, 1, {("x",): -1, (): 1})])
        repeated = MatrixPair.from_entries(2, [(0, 0, {("y",): F(1, 2)}), (0, 1, {(): F(1, 4)}),
                                               (1, 0, {("y",): 1, (): -1}), (1, 1, {("y",): 1})])

        def system(n):
            # 1 minus the projection: offset 1 and a negated vL
            return TransferSystem((F(-1), F(-2)), (first,) + (repeated,) * n, (F(1, 2), F(1)), offset=1)

        gf = transfer_gf(system(1), {"x": F(3, 4), "y": P})
        coeffs = series_coeffs(gf, 10)
        fcoeffs = series_coeffs(series_operator(gf, F(2)), 10)
        for p in (F(1, 3), F(9, 10)):
            for n in range(11):
                # x is the constant 3/4 in the series, so its rate is 0
                report = single_pass(system(n), {"x": (F(3, 4), 0), "y": (p, F(2))})
                assert (coeffs[n](p), fcoeffs[n](p)) == (report.availability, report.frequency)

    def test_system_without_pairs_rejected(self):
        with pytest.raises(GenfuncError):
            transfer_gf(TransferSystem((1,), (), (1,)), {})


class TestRecurrence:
    @given(st.integers(1, 8), st.integers(0, 20), st.sampled_from(P_POINTS))
    @settings(max_examples=80, deadline=None)
    def test_pascal_style_recurrence(self, k, extra, p):
        n = k + extra
        assert kofn_availability(k, n + 1, p) == (
            (1 - p) * kofn_availability(k, n, p) + p * kofn_availability(k - 1, n, p)
        )

    def test_boundary_conventions(self):
        assert kofn_availability(0, 0, F(1, 2)) == 1
        assert kofn_availability(0, 7, F(1, 2)) == 1
        assert kofn_availability(3, 2, F(1, 2)) == 0

    def test_invalid_args(self):
        with pytest.raises(ReliabilityError):
            kofn_availability(-1, 2, F(1, 2))
