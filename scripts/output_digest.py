#!/usr/bin/env python3
"""Print one SHA-256 digest per output of a fixed, seeded set of runs.

The set covers exact and approx ``relfreq solve`` reports of the two worked
examples, a 600-cell heterogeneous ladder, a 40-cell ladder whose cells
reuse component ids, a 50-of-200:G system, a 2x2 custom-matrices system
with offset 1 and sign -1, and a 2x2 custom-matrices system whose scalars
are JSON numbers, exponent and signed strings, spaced ratios and leading
zeros, and a two-cell ladder given cell by cell under the steady-state
convention, whose reports carry the rate unit "mu"; ``sweep`` CSVs over p
of a ladder, a k-of-n:G and a consecutive-k-of-n:F system, each of which
the sweep builds as one run of one shared cell or component; and
``relfreq verify --trials 200`` at seeds 0-3, clean and with a fault
injected here (1/97 added to slot 0 of each system's first pair), whose
mismatch line prints rationals; and the first 31 coefficients, polynomials
in p, of the generating functions over n of 3-of-n:G, its frequency,
consecutive-3-of-n:F and the ladder to T_n with perfect nodes, each read
by ``transfer_gf`` from the same kind of run.  After those 31 lines come
exact and approx ``solve`` runs of three 1x1 custom-matrices systems that
hold the value 1e400, above the double range, as a matrix coefficient, a
``v_right`` entry or the offset, each read by its exit code and stderr;
and of a 30-cell ladder whose 306 p and lambda scalars are 20 distinct
texts of five values, written as JSON numbers, decimals, ratios, exponents
and padded strings.  Last come exact and approx ``solve`` runs, with
stderr, of a 2400-cell heterogeneous ladder, long enough that the exact
fold applies its steps in growing blocks, and of two 1x1 custom matrices
of 1e200 x whose product A leaves the double range.  Every input is
built here from fixed seeds, so two checkouts give identical lines
exactly when their outputs are byte-identical:

    diff <(python3 scripts/output_digest.py) \\
         <(PYTHONPATH=../other/src python3 ../other/scripts/output_digest.py)

``tests/output_digest.txt`` holds the lines it prints, which
``tests/test_scripts.py`` compares exactly.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

from relfreq import verify
from relfreq.cli import main as relfreq
from relfreq.core import Layout, MatrixPair, single_pass
from relfreq.genfunc import UniPoly, series_coeffs, series_operator, transfer_gf
from relfreq.kofn import build_kofn_g, build_lincon_f, identical_kofn_spec
from relfreq.ladder import LadderIdenticalParams, build_ladder, identical_ladder_spec


def worked_5_of_8():
    return {
        "family": "kofn-g",
        "k": 5,
        "rate_convention": "steady-state-mu",
        "components": [{"id": f"c{i + 1}", "p": f"{90 - i}/100"} for i in range(8)],
    }


def worked_lincon_4_of_11():
    return {
        "family": "lincon-f",
        "k": 4,
        "rate_convention": "steady-state-mu",
        "components": [{"id": f"c{i + 1}", "p": f"{70 + 2 * i}/100"} for i in range(11)],
    }


def heterogeneous_ladder(rng, cells):
    def comp(cid):
        return {"id": cid, "p": f"{rng.randint(800, 990) / 1000:.3f}",
                "lambda": f"{rng.randint(1, 20) / 10:.1f}"}

    rows = [{key: comp(f"{key}0") for key in "bST"}]
    rows += [{key: comp(f"{key}{i}") for key in "abcST"} for i in range(1, cells + 1)]
    return {"family": "ladder", "rate_convention": "explicit", "terminal": "Tn", "cells": rows}


def shared_id_ladder(rng, cells):
    """Cell i's top rail and rung are one component r{i}, its bottom rail
    c{i // 2} is shared with a neighbouring cell, and every cell's S node
    is the one component S, so a pair binds an id twice and cells share
    ids; one id always has one p and lambda."""
    values = {}

    def comp(cid):
        if cid not in values:
            values[cid] = {"id": cid, "p": f"{rng.randint(800, 990)}/1000",
                           "lambda": f"{rng.randint(1, 20)}/10"}
        return values[cid]

    rows = [{"b": comp("r0"), "S": comp("S"), "T": comp("T0")}]
    rows += [{"a": comp(f"r{i}"), "b": comp(f"r{i}"), "c": comp(f"c{i // 2}"),
              "S": comp("S"), "T": comp(f"T{i}")} for i in range(1, cells + 1)]
    return {"family": "ladder", "rate_convention": "explicit", "terminal": "Sn", "cells": rows}


def kofn_50_of_200(rng):
    return {
        "family": "kofn-g",
        "k": 50,
        "rate_convention": "steady-state-mu",
        "components": [{"id": f"c{i}", "p": f"{rng.randint(50, 99)}/100"} for i in range(200)],
    }


def custom_offset_sign():
    x, y, one = ["x"], ["y"], []
    return {
        "family": "custom-matrices",
        "components": [{"id": "x", "p": "3/4", "lambda": "2"},
                       {"id": "y", "p": "2/5", "lambda": "1/3"}],
        "v_left": ["1", "0"],
        "v_right": ["1/2", "1"],
        "offset": "1",
        "sign": -1,
        "matrices": [
            [[[["1", x]], [["-1", ["x", "y"]]]], [[["1", one], ["-1", y]], [["1/2", x]]]],
            [[[["1", y], ["1", x], ["-1", ["x", "y"]]], []], [[["1", one], ["-1", x]], [["1", y]]]],
        ],
    }


def custom_scalar_forms():
    """A 2x2 custom-matrices system whose scalars are written in the other
    forms a config may use: JSON numbers, exponents, a sign, spaces around
    num/den and leading zeros."""
    x, y, one = ["x"], ["y"], []
    return {
        "family": "custom-matrices",
        "components": [{"id": "x", "p": 0.9, "lambda": "2.5e-1"},
                       {"id": "y", "p": " 3/4 ", "lambda": 2}],
        "v_left": ["+0.5", 0.5],
        "v_right": ["0012.50e-1", 1],
        "offset": "0E0",
        "matrices": [
            [[[[0.5, x], ["+0.25", y]], [["2.5e-1", ["x", "y"]]]], [[[" 3/4 ", one]], [["0012.50", y]]]],
            [[[["1", y]], [["-1E-1", x], ["1/10", one]]], [[[" 1/2", x]], [[1, one], [-0.5, y]]]],
        ],
    }


def ladder_cells_mu():
    """A two-cell ladder given cell by cell under the steady-state
    convention: lambda p = mu q with each component's own mu."""
    def comp(cid, p, mu="1"):
        return {"id": cid, "p": p, "mu": mu}

    return {
        "family": "ladder",
        "rate_convention": "steady-state-mu",
        "terminal": "Tn",
        "cells": [
            {"b": comp("b0", "9/10"), "S": comp("S0", "1"), "T": comp("T0", "1")},
            {"a": comp("a1", "4/5", "2"), "b": comp("b1", "7/10"), "c": comp("c1", "19/20"),
             "S": comp("S1", "99/100", "1/2"), "T": comp("T1", "1")},
        ],
    }


# each value in the forms a config may write it in: JSON numbers, decimals,
# ratios, exponents and padded text
FORMS = {
    Fraction(9, 10): [0.9, "0.9", "9/10", "0.90", "90e-2", " 9/10 "],
    Fraction(19, 20): [0.95, "0.95", "19/20", "95/100"],
    Fraction(1): [1, "1", "1.0", "1/1", 1.0],
    Fraction(1, 2): [0.5, "0.5", "1/2", "5e-1"],
    Fraction(2): [2, "2", "2.0", 2.0, "4/2"],
    Fraction(0): [0, "0", "0.0", 0.0, "0/1"],
}


def ladder_mixed_forms(rng, cells):
    """A heterogeneous ladder whose p and lambda values repeat across its
    components, each occurrence written in a randomly drawn form."""
    def comp(cid):
        p = rng.choice([Fraction(9, 10), Fraction(19, 20), Fraction(1)])
        lam = Fraction(0) if p == 1 else rng.choice([Fraction(1, 2), Fraction(2)])
        return {"id": cid, "p": rng.choice(FORMS[p]), "lambda": rng.choice(FORMS[lam])}

    rows = [{key: comp(f"{key}0") for key in "bST"}]
    rows += [{key: comp(f"{key}{i}") for key in "abcST"} for i in range(1, cells + 1)]
    return {"family": "ladder", "rate_convention": "explicit", "terminal": "Tn", "cells": rows}


def custom_beyond_double_range(field):
    """A 1x1 custom-matrices system with one value of 1e400, above the
    double range, as a matrix coefficient, a v_right entry or the offset."""
    cfg = {
        "family": "custom-matrices",
        "components": [{"id": "x", "p": "3/4", "lambda": "2"}],
        "v_left": ["1"],
        "v_right": ["1"],
        "matrices": [[[[["1", ["x"]]]]]],
    }
    if field == "coefficient":
        cfg["matrices"] = [[[[["1e400", ["x"]]]]]]
    else:
        cfg[field] = ["1e400"] if field == "v_right" else "1e400"
    return cfg


def custom_product_beyond_double_range():
    """Two 1x1 matrices of 1e200 x at p = 1/2: each value is in the double
    range, their product A = 2.5e399 is not."""
    matrix = [[[["1e200", ["x"]]]]]
    return {
        "family": "custom-matrices",
        "components": [{"id": "x", "p": "1/2", "lambda": "1"}],
        "v_left": ["1"],
        "v_right": ["1"],
        "matrices": [matrix, matrix],
    }


def corrupt_pass(system):
    """``single_pass`` of ``system`` with 1/97 added to its first pair's
    slot 0, at every position that holds it, so no oracle agrees."""
    pair = tuple(system.pairs)[0]
    layout = pair.layout
    polys = (layout.polys[0] + (((), Fraction(1, 97)),),) + layout.polys[1:]
    bad = MatrixPair(Layout(layout.dim, layout.rows, polys), pair.ids)
    return single_pass(replace(system, pairs=(bad,) + tuple(system.pairs)[1:]))


def identical_gfs():
    """{name: generating function over n} for identical components, each
    derived from its family's transfer matrix with every edge read as p:
    a k-of-n system is one run of one component's pair
    (``identical_kofn_spec``), and the ladder runs its one interior cell
    after cell 0."""
    p = UniPoly([0, 1])

    def one_run(build):
        system = build(identical_kofn_spec(3, 3, Fraction(1, 2), 1))
        return transfer_gf(system, {c.id: p for c in system.components})

    kofn = one_run(build_kofn_g)
    ladder = build_ladder(identical_ladder_spec(LadderIdenticalParams(Fraction(1, 2), 1, 0, 0, 1)))
    edges = {"b0", "a", "b", "c"}
    return {
        "kofn-3-G": kofn,
        "kofn-3-G frequency": series_operator(kofn, 1),
        "lincon-3-F": one_run(build_lincon_f),
        "ladder-Tn": transfer_gf(ladder, {c.id: p if c.id in edges else c.p for c in ladder.components}),
    }


def series_text(gf) -> bytes:
    """The coefficients of z^0 .. z^30, one line each, as the rational
    coefficients of the polynomial in p, lowest power first."""
    return "\n".join(" ".join(map(str, c.coeffs)) for c in series_coeffs(gf, 30)).encode()


def run(argv):
    """(exit code, stdout, stderr) of an in-process ``relfreq`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = relfreq(argv)
    return code, out.getvalue(), err.getvalue()


def read(path: Path) -> bytes:
    """The bytes of an output file, or none when the run wrote none."""
    return path.read_bytes() if path.exists() else b""


def solves(workdir: Path, configs: dict, with_stderr: bool):
    """(name, bytes) of an exact and an approx ``solve`` of each config:
    the exit code, then stderr if ``with_stderr``, then the report."""
    for name, cfg in configs.items():
        cfg_path = workdir / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        for mode in ("exact", "approx"):
            out_path = workdir / f"{name}.{mode}.out"
            code, _, err = run(["solve", str(cfg_path), "--mode", mode, "--out", str(out_path)])
            head = f"exit {code}\n" + (err if with_stderr else "")
            yield f"solve {name} {mode}", head.encode() + read(out_path)


def digests(workdir: Path):
    """(name, bytes) for each output of the set, in a fixed order; a
    command's exit code is part of its output."""
    yield from solves(workdir, {
        "worked-5-of-8-G": worked_5_of_8(),
        "worked-lincon-4-of-11-F": worked_lincon_4_of_11(),
        "ladder-600": heterogeneous_ladder(random.Random(600), 600),
        "ladder-40-shared-ids": shared_id_ladder(random.Random(40), 40),
        "kofn-50-of-200-G": kofn_50_of_200(random.Random(200)),
        "custom-offset-sign": custom_offset_sign(),
        "custom-scalar-forms": custom_scalar_forms(),
        "ladder-cells-mu": ladder_cells_mu(),
    }, with_stderr=False)
    sweeps = {
        "ladder": ["--n", "3000", "--rho", "0.99", "--lam", "1", "--xi", "0.5"],
        "kofn-g": ["--k", "10", "--n", "30", "--lam", "3/2"],
        "lincon-f": ["--k", "3", "--n", "40", "--lam", "1/3"],
    }
    for family, flags in sweeps.items():
        csv_path = workdir / f"sweep-{family}.csv"
        code, _, _ = run(["sweep", "--family", family, "--param", "p", "--range", "0.05:0.95:0.1",
                       *flags, "--out", str(csv_path)])
        yield f"sweep {family} p", f"exit {code}\n".encode() + read(csv_path)
    for seed in range(4):
        for suffix, solve in (("", single_pass), (" corrupt", corrupt_pass)):
            with mock.patch.object(verify, "single_pass", solve):
                code, text, _ = run(["verify", "--trials", "200", "--seed", str(seed)])
            yield f"verify seed {seed}{suffix}", f"exit {code}\n{text}".encode()
    for name, gf in identical_gfs().items():
        yield f"gf {name}", series_text(gf)
    # later additions, after the earlier lines so that those keep their order;
    # a run that fails is read by its exit code and stderr
    yield from solves(workdir, {
        **{f"custom-1e400-{field}": custom_beyond_double_range(field)
           for field in ("coefficient", "v_right", "offset")},
        "ladder-mixed-forms": ladder_mixed_forms(random.Random(30), 30),
    }, with_stderr=True)
    yield from solves(workdir, {
        "ladder-2400": heterogeneous_ladder(random.Random(2400), 2400),
        "custom-1e200-squared": custom_product_beyond_double_range(),
    }, with_stderr=True)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in digests(Path(tmp)):
            print(f"{hashlib.sha256(data).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
