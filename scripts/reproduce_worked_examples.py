#!/usr/bin/env python3
"""Reproduce the two textbook-style worked examples end to end.

Prints exact rationals and rounded decimals for the 5-out-of-8:G system and
the linear consecutive-4-out-of-11:F system, with steady-state rates quoted
per unit repair rate.
"""

from fractions import Fraction

from relfreq.core import Component, single_pass
from relfreq.kofn import KofnSpec, build_kofn_g, build_lincon_f
from relfreq.scalars import rational_str


def show(title, report):
    print(title)
    print(f"  A        = {rational_str(report.availability)}"
          f"  ({float(report.availability):.10f})")
    print(f"  U        = {rational_str(report.unavailability)}"
          f"  ({float(report.unavailability):.10f})")
    print(f"  nu_bar   = {rational_str(report.frequency)}"
          f"  ({float(report.frequency):.10f} per mu)")
    print(f"  lam_bar  = {float(report.failure_rate):.10f} per mu")
    print()


def main():
    comps_8 = tuple(
        Component.steady_state(f"c{i+1}", Fraction(90 - i, 100)) for i in range(8)
    )
    show(
        "5-out-of-8:G, p = 0.90 .. 0.83",
        single_pass(build_kofn_g(KofnSpec(5, comps_8, rate_unit="mu"))),
    )

    comps_11 = tuple(
        Component.steady_state(f"c{i+1}", Fraction(70 + 2 * i, 100)) for i in range(11)
    )
    show(
        "Lin/Con/4/11:F, p = 0.70 .. 0.90",
        single_pass(
            build_lincon_f(
                KofnSpec(4, comps_11, rate_unit="mu")
            )
        ),
    )


if __name__ == "__main__":
    main()
