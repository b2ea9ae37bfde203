"""Reference results the benchmark checks the program's outputs against.

None of these call ``relfreq.core``: they work from the generated JSON
configs alone, so a defect in the transfer-matrix pass cannot hide in its own
reference.

* ``WORKED_EXAMPLES`` -- the published rationals of the two worked examples.
* ``kofn_g_reference`` -- exact A and nu of a k-out-of-n:G system from a
  Poisson-binomial dynamic programme over integer weights.
* ``ladder_reference`` -- A and nu of a two-terminal ladder from a frontier
  dynamic programme over dual numbers, either modulo a large prime (an exact
  check that never builds big rationals) or in floats.

The frequency comes from forward-mode differentiation: with every component
availability moving as dp_i/dt = lambda_i p_i, the derivative dA/dt is
sum_i lambda_i p_i dA/dp_i, which is the mean failure frequency nu.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# A Mersenne prime; every denominator the generators produce is coprime to it.
PRIME = (1 << 61) - 1


def _worked(k, family, ps):
    comps = [{"id": f"c{i + 1}", "p": p} for i, p in enumerate(ps)]
    return {"family": family, "k": k, "rate_convention": "steady-state-mu", "components": comps}


# (config, published availability, published frequency per mu)
WORKED_EXAMPLES = {
    "5-of-8:G": (
        _worked(5, "kofn-g", [f"0.{90 - i}" for i in range(8)]),
        Fraction(615925280183, 625000000000),
        Fraction(8012914359, 156250000000),
    ),
    "lincon-4-of-11:F": (
        _worked(4, "lincon-f", [f"0.{70 + 2 * i}" for i in range(11)]),
        Fraction(30105385968617, 30517578125000),
        Fraction(155495836041, 3051757812500),
    ),
}


def component_rate(entry: dict, convention: str) -> Fraction:
    """Failure rate of one config component under the config's convention."""
    p = Fraction(entry["p"])
    if convention == "steady-state-mu" and p != 0:
        return Fraction(entry.get("mu", "1")) * (1 - p) / p
    return Fraction(entry.get("lambda", "0"))


def kofn_g_reference(cfg: dict):
    """Exact (A, nu) of a k-out-of-n:G config with 0 < p_i < 1.

    W[j] counts, over a common denominator D^n, the ways exactly j components
    are up; only j < k is needed since A = 1 - P(fewer than k up).  Removing
    component i from W by exact integer division gives the weights of the
    others, and nu = sum_i lambda_i p_i P(exactly k-1 of the others are up).
    """
    k = int(cfg["k"])
    convention = cfg.get("rate_convention", "explicit")
    ps = [Fraction(e["p"]) for e in cfg["components"]]
    lams = [component_rate(e, convention) for e in cfg["components"]]
    n = len(ps)
    denom = math.lcm(*(p.denominator for p in ps))
    ups = [p.numerator * (denom // p.denominator) for p in ps]
    downs = [denom - u for u in ups]
    w = [1] + [0] * (k - 1)
    for u, d in zip(ups, downs):
        w = [w[0] * d] + [w[j] * d + w[j - 1] * u for j in range(1, k)]
    availability = 1 - Fraction(sum(w), denom**n)
    freq = Fraction(0)
    for p, lam, u, d in zip(ps, lams, ups, downs):
        others = w[0] // d
        for j in range(1, k):
            others = (w[j] - u * others) // d
        freq += lam * p * others
    return availability, freq / denom ** (n - 1)


# ---------------------------------------------------------------------------
# Ladder frontier programme


class _Arith:
    """Dual-number arithmetic (value, d/dt) in floats or modulo PRIME."""

    def __init__(self, modular: bool):
        self.modular = modular

    def scalar(self, x: Fraction):
        if self.modular:
            return x.numerator % PRIME * pow(x.denominator, -1, PRIME) % PRIME
        return float(x)

    def component(self, p: Fraction, lam: Fraction):
        """(up, down) duals of one component."""
        tangent = self.scalar(lam * p)
        up = (self.scalar(p), tangent)
        down = (self.scalar(1 - p), -tangent)
        if self.modular:
            down = (down[0], down[1] % PRIME)
        return up, down

    def mul(self, x, y):
        v = x[0] * y[0]
        t = x[0] * y[1] + x[1] * y[0]
        if self.modular:
            return v % PRIME, t % PRIME
        return v, t

    def add(self, x, y):
        if self.modular:
            return (x[0] + y[0]) % PRIME, (x[1] + y[1]) % PRIME
        return x[0] + y[0], x[1] + y[1]


_ZERO = (0, 0)


def ladder_reference(cfg: dict, modular: bool):
    """(A, nu) of a ladder config with explicit cells.

    The frontier after cell i is which of S_i, T_i are joined to the source
    S_0: both, only S, or only T (neither means the source is cut off for
    good, since every path to the right crosses the frontier).  Cell i joins
    S_i through edge a_i from S_{i-1}, T_i through c_i from T_{i-1}, and the
    rung b_i joins S_i and T_i; a node must be up to carry a path.
    """
    ar = _Arith(modular)
    convention = cfg.get("rate_convention", "explicit")

    def duals(entry):
        return ar.component(Fraction(entry["p"]), component_rate(entry, convention))

    # The source S_0 sits behind a perfect entry edge a_0 and has no bottom
    # rail c_0, so cell 0 is an ordinary cell entered from "only S joined".
    entry = dict(cfg["cells"][0], a={"p": "1"}, c={"p": "0"})
    one = (ar.scalar(Fraction(1)), ar.scalar(Fraction(0)))
    states = {(True, False): one}
    for cell in [entry] + list(cfg["cells"][1:]):
        comps = [duals(cell[key]) for key in ("a", "b", "c", "S", "T")]
        weights = {}
        for bits in itertools.product((True, False), repeat=5):
            w = comps[0][0 if bits[0] else 1]
            for comp, up in zip(comps[1:], bits[1:]):
                w = ar.mul(w, comp[0 if up else 1])
            weights[bits] = w
        new = {}
        for (s_prev, t_prev), w_prev in states.items():
            for (a, b, c, s, t), w in weights.items():
                s_new = s and a and s_prev
                t_new = t and c and t_prev
                if b and s and t and (s_new or t_new):
                    s_new = t_new = True
                if s_new or t_new:
                    key = (s_new, t_new)
                    new[key] = ar.add(new.get(key, _ZERO), ar.mul(w_prev, w))
        states = new
    want_s = cfg.get("terminal", "Tn") == "Sn"
    total = _ZERO
    for (s, t), w in states.items():
        if (s if want_s else t):
            total = ar.add(total, w)
    return total


def rational_mod(text: str) -> int:
    """A report's 'num/den' rational string reduced modulo PRIME."""
    return _Arith(True).scalar(Fraction(text))
