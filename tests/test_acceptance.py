"""Acceptance criteria for the release.

Each test covers one criterion and emits exactly one PASS/FAIL line outside
pytest's capture so the run log shows a scoreboard.
"""

import math
import time
from fractions import Fraction as F

from relfreq.asymptotics import (
    asymptotic_rate,
    dominant_amplitude,
    eigenvalues,
    log_derivative_maxima,
    log_derivatives,
    minimal_cuts_size2,
)
from relfreq.core import initial_state, single_pass, stream_step
from relfreq.genfunc import (
    gf_equal,
    series_coeffs,
    series_operator,
)
from relfreq.kofn import KofnSpec, build_kofn_g, build_lincon_f, identical_kofn_spec
from relfreq.ladder import (
    LadderIdenticalParams,
    TERMINAL_S,
    TERMINAL_T,
    ladder_frequency,
)
from relfreq.oracle import lincon_f_structure, oracle_frequency
from relfreq.verify import run_equivalence_trials

from helpers import (
    distinct_identical_components,
    example_7_2_components,
    family_gf,
    gf_kofn_g,
    gf_kofn_g_freq,
    gf_lincon_f,
    kofn_availability,
    lincon_4_11_components,
)


def scoreboard(capsys, number, label, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_worked_5_of_8(capsys):
    t0 = time.perf_counter()
    report = single_pass(build_kofn_g(KofnSpec(5, example_7_2_components())))
    elapsed = time.perf_counter() - t0
    ok = (
        report.availability == F(615925280183, 625000000000)
        and report.frequency == F(8012914359, 156250000000)
        and abs(float(report.failure_rate) - 0.0520382) < 1e-7
        and elapsed < 1.0
    )
    scoreboard(capsys, 1, "5-out-of-8:G worked example, exact rationals in under 1 s", ok)


def test_criterion_2_worked_consecutive_4_of_11(capsys):
    comps = lincon_4_11_components()
    t0 = time.perf_counter()
    report = single_pass(build_lincon_f(KofnSpec(4, comps)))
    elapsed = time.perf_counter() - t0
    sf = lincon_f_structure([c.id for c in comps], 4)
    nu_oracle = oracle_frequency(
        sf, {c.id: c.p for c in comps}, {c.id: c.lam for c in comps}
    )
    ok = (
        report.availability == F(30105385968617, 30517578125000)
        and report.frequency == F(155495836041, 3051757812500)
        and report.frequency == nu_oracle
        and abs(float(report.failure_rate) - 0.0516505) < 1e-7
        and elapsed < 1.0
    )
    scoreboard(capsys, 2, "consecutive-4-of-11:F worked example, oracle-confirmed", ok)


def test_criterion_3_randomized_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    mismatch = run_equivalence_trials(trials=200, max_components=12, seed=0)
    elapsed = time.perf_counter() - t0
    ok = mismatch is None and elapsed < 300
    scoreboard(capsys, 3, "200 randomized instances agree exactly with the oracle", ok)


def test_criterion_4_generating_function_consistency(capsys):
    p_points = [F(i, 11) for i in range(1, 11)]
    lam = F(1)
    ok = True
    for k in range(1, 7):
        # the series derived from each builder's transfer matrix are the
        # published forms, and the operator image of the availability series
        # is the closed-form frequency series, as rational functions
        derived = family_gf(build_kofn_g, k)
        if not (
            gf_equal(derived, gf_kofn_g(k))
            and gf_equal(family_gf(build_lincon_f, k), gf_lincon_f(k))
            and gf_equal(series_operator(derived, lam), gf_kofn_g_freq(k, lam))
            and gf_equal(series_operator(gf_kofn_g(k), lam), gf_kofn_g_freq(k, lam))
        ):
            ok = False
            break
        a_coeffs = series_coeffs(gf_kofn_g(k), 30)
        f_direct = series_coeffs(gf_kofn_g_freq(k, lam), 30)
        f_termwise = series_operator(a_coeffs, lam)
        if f_direct != f_termwise:
            ok = False
            break
        for p in p_points:
            # incremental transfer-matrix fold: one shared matrix, n steps
            system = build_kofn_g(identical_kofn_spec(k, k, p, lam))
            pair = tuple(system.pairs)[0]
            assignment = system.default_assignment()
            state = initial_state(system)
            for n in range(1, 31):
                state = stream_step(state, pair, assignment)
                a_matrix = 1 - F(state.a_vec[0], state.scale)
                nu_matrix = -F(state.v_vec[0], state.scale)
                if a_coeffs[n](p) != a_matrix or f_direct[n](p) != nu_matrix:
                    ok = False
            if not ok:
                break
        if not ok:
            break
    scoreboard(
        capsys,
        4, "transfer-matrix generating functions are the published ones and match "
        "the matrix fold exactly (k<=6, n<=30)", ok
    )


def test_criterion_5_log_derivative_maxima(capsys):
    maxima = log_derivative_maxima()
    p_z, v_z = maxima["zeta"]
    p_a, v_a = maxima["alpha"]
    ok = (
        abs(p_z - 0.251641) < 1e-4
        and abs(v_z - 1.13827) < 1e-4
        and abs(p_a - 0.709902) < 1e-4
        and abs(v_a - 0.458825) < 1e-4
    )
    scoreboard(capsys, 5, "log-derivative maxima locations and values reproduced", ok)


def test_criterion_6_large_n_rate_asymptote(capsys):
    p, lam = F(9, 10), F(1)
    d_zeta, _ = log_derivatives(0.9)
    r400 = ladder_frequency(
        LadderIdenticalParams(p, F(1), lam, F(0), 400), TERMINAL_T, mode="approx"
    ).failure_rate
    r401 = ladder_frequency(
        LadderIdenticalParams(p, F(1), lam, F(0), 401), TERMINAL_T, mode="approx"
    ).failure_rate
    slope_ok = abs((r401 - r400) - d_zeta) / d_zeta < 1e-4
    exact_200 = ladder_frequency(
        LadderIdenticalParams(p, F(1), lam, F(0), 200), TERMINAL_T, mode="approx"
    ).failure_rate
    line_ok = abs(asymptotic_rate(0.9, 200, 1.0) - exact_200) / exact_200 < 1e-3
    scoreboard(capsys, 6, "failure rate grows linearly with the predicted slope", slope_ok and line_ok)


def test_criterion_7_highly_reliable_limit_and_cut_count(capsys):
    q = F(1, 10**8)
    p = 1 - q
    ratios_ok = True
    for n in (1, 5, 20):
        rate = ladder_frequency(
            LadderIdenticalParams(p, F(1), F(1), F(0), n), TERMINAL_S
        ).failure_rate
        ratio = rate / ((2 * n + 4) * q)
        if abs(float(ratio) - 1) >= 1e-5:
            ratios_ok = False
    cuts_ok = all(
        2 * len(minimal_cuts_size2(n, terminal="S")) == 2 * n + 4 for n in (1, 2, 3, 4)
    )
    scoreboard(
        capsys,
        7,
        "first-order limit (2n+4) lam q holds and matches the size-2 cut count",
        ratios_ok and cuts_ok,
    )


def test_criterion_8_performance(capsys):
    p, n = 0.9, 100_000
    t0 = time.perf_counter()
    params = LadderIdenticalParams(p, 1.0, 1.0, 0.0, n)
    report = ladder_frequency(params, TERMINAL_T, mode="approx")
    t_ladder = time.perf_counter() - t0
    # A is about 1e-514, below the double range, so the float A and nu read
    # 0; the rate and log10 A must still be right
    log10_a = n * math.log10(eigenvalues(p)[1]) + math.log10(dominant_amplitude(p))
    ladder_ok = (
        t_ladder < 1.0
        and math.isclose(report.failure_rate, asymptotic_rate(p, n, 1.0), rel_tol=1e-6)
        and abs(report.log10_availability - log10_a) < 1e-6
    )

    t0 = time.perf_counter()
    big = single_pass(
        build_kofn_g(KofnSpec(50, distinct_identical_components(200, F(9, 10), lam=F(1))))
    )
    t_kofn = time.perf_counter() - t0
    kofn_ok = t_kofn < 30.0 and 0 < big.availability < 1
    scoreboard(
        capsys,
        8,
        f"performance: 100k-cell ladder {t_ladder:.2f}s (<1s), "
        f"50-of-200 exact {t_kofn:.1f}s (<30s)",
        ladder_ok and kofn_ok,
    )


def test_criterion_9_recurrence(capsys):
    p_points = [F(1, 7), F(1, 3), F(1, 2), F(2, 3), F(9, 10)]
    ok = all(
        kofn_availability(k, n + 1, p)
        == (1 - p) * kofn_availability(k, n, p) + p * kofn_availability(k - 1, n, p)
        for k in range(1, 9)
        for n in range(k, 41)
        for p in p_points
    )
    scoreboard(capsys, 9, "Pascal-style availability recurrence holds (k<=8, n<=40)", ok)
