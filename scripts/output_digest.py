#!/usr/bin/env python3
"""Print one SHA-256 digest per output of a fixed, seeded set of runs.

The set covers exact and approx ``relfreq solve`` reports of the two worked
examples, a 600-cell heterogeneous ladder, a 40-cell ladder whose cells
reuse component ids, a 50-of-200:G system, a 2x2 custom-matrices system
with offset 1 and sign -1, and a 2x2 custom-matrices system whose scalars
are JSON numbers, exponent and signed strings, spaced ratios and leading
zeros; ``sweep`` CSVs over p of a ladder, a k-of-n:G and a
consecutive-k-of-n:F system; and ``relfreq verify --trials 200`` at seeds
0-3, clean and with the corrupting test hook, whose mismatch line prints
rationals.  Every input is built here from fixed seeds, so two checkouts give identical lines
exactly when their outputs are byte-identical:

    diff <(python3 scripts/output_digest.py) \\
         <(PYTHONPATH=../other/src python3 ../other/scripts/output_digest.py)
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from relfreq.cli import main as relfreq


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


def run(argv):
    """(exit code, stdout) of an in-process ``relfreq`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = relfreq(argv)
    return code, out.getvalue()


def read(path: Path) -> bytes:
    """The bytes of an output file, or none when the run wrote none."""
    return path.read_bytes() if path.exists() else b""


def digests(workdir: Path):
    """(name, bytes) for each output of the set, in a fixed order; a
    command's exit code is part of its output."""
    configs = {
        "worked-5-of-8-G": worked_5_of_8(),
        "worked-lincon-4-of-11-F": worked_lincon_4_of_11(),
        "ladder-600": heterogeneous_ladder(random.Random(600), 600),
        "ladder-40-shared-ids": shared_id_ladder(random.Random(40), 40),
        "kofn-50-of-200-G": kofn_50_of_200(random.Random(200)),
        "custom-offset-sign": custom_offset_sign(),
        "custom-scalar-forms": custom_scalar_forms(),
    }
    for name, cfg in configs.items():
        cfg_path = workdir / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        for mode in ("exact", "approx"):
            out_path = workdir / f"{name}.{mode}.out"
            code, _ = run(["solve", str(cfg_path), "--mode", mode, "--out", str(out_path)])
            yield f"solve {name} {mode}", f"exit {code}\n".encode() + read(out_path)
    sweeps = {
        "ladder": ["--n", "3000", "--rho", "0.99", "--lam", "1", "--xi", "0.5"],
        "kofn-g": ["--k", "10", "--n", "30", "--lam", "3/2"],
        "lincon-f": ["--k", "3", "--n", "40", "--lam", "1/3"],
    }
    for family, flags in sweeps.items():
        csv_path = workdir / f"sweep-{family}.csv"
        code, _ = run(["sweep", "--family", family, "--param", "p", "--range", "0.05:0.95:0.1",
                       *flags, "--out", str(csv_path)])
        yield f"sweep {family} p", f"exit {code}\n".encode() + read(csv_path)
    for seed in range(4):
        for extra in ([], ["--corrupt"]):
            code, text = run(["verify", "--trials", "200", "--seed", str(seed), *extra])
            yield f"verify seed {seed}{' corrupt' if extra else ''}", f"exit {code}\n{text}".encode()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in digests(Path(tmp)):
            print(f"{hashlib.sha256(data).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
