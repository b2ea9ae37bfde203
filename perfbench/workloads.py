"""The benchmark's workloads: seeded inputs, one timed operation, and checks.

Each workload drives relfreq through the entry points users call --
``relfreq.cli.main`` for ``solve``, ``sweep`` and ``verify``, and
``relfreq.core.stream_step`` / ``finalize`` for streaming -- and hands the
program nothing but generated JSON configs and command lines.

A round is one timed operation followed, outside the timed region, by the
workload's check operations.  Every operation's output is checked:

* ``ok`` -- the output matched its reference;
* ``exact`` -- the check tests a guarantee of exact mode (bit-identical
  rationals, oracle agreement, verify's exit status).  A failed exact check
  makes the run incorrect.  Approx mode states no accuracy bound yet, and an
  operation that raises produced no wrong answer, so those failures are
  counted but leave the run correct.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

from references import (
    WORKED_EXAMPLES,
    kofn_g_reference,
    ladder_reference,
    rational_mod,
)

# Stated relative bounds for approx-mode outputs.
APPROX_VS_REFERENCE = 1e-9  # well-scaled chains against the float frontier programme
APPROX_VS_ASYMPTOTIC = 1e-6  # sweep rows at n = 100000 against asymptotic_rate


@dataclass
class Outcome:
    label: str
    ok: bool
    exact: bool


@dataclass
class Workload:
    """A workload after input generation.

    ``op(round)`` is the timed operation and ``check`` judges what it
    returned, as ``outputs`` outcomes.  ``metric`` names the end-to-end
    metric the operation time feeds: a time, or a rate of ``items`` per
    operation when it ends in ``_per_s``.  ``prepare`` runs once after input
    generation and ``extra_checks`` once per round, both untimed.  The file
    at ``output_path`` is removed before each operation, so a stale one is
    never checked.
    """

    name: str
    metric: str
    items: int
    op: Callable
    check: Callable
    extra_checks: List[Callable] = field(default_factory=list)
    prepare: Callable = lambda: None
    output_path: Optional[str] = None
    outputs: int = 1


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _cli(argv):
    """Run ``relfreq <argv>`` in-process, its printing discarded; the exit code."""
    import relfreq.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return relfreq.cli.main(argv)


def _read_report(path):
    with open(path) as fh:
        return json.load(fh)


def _rel_close(x: float, ref: float, bound: float) -> bool:
    return math.isfinite(x) and abs(x - ref) <= bound * abs(ref)


def _solve_op(cfg_path, out_path):
    """Timed exact ``relfreq solve``: from config file to written report."""

    def op(_round):
        return _cli(["solve", cfg_path, "--out", out_path])

    return op


def clear(path):
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _check_exit(code):
    if code != 0:
        raise RuntimeError(f"solve exited {code}")


def _solve_and_read(cfg, workdir, tag, mode="exact"):
    """Untimed check operation: solve a config and return its report."""
    cfg_path = os.path.join(workdir, f"{tag}.json")
    out_path = os.path.join(workdir, f"{tag}.out.json")
    _write_json(cfg_path, cfg)
    clear(out_path)
    _check_exit(_cli(["solve", cfg_path, "--mode", mode, "--out", out_path]))
    return _read_report(out_path)


def failures(label, exc, count=1):
    """``count`` failed outcomes for an operation that raised."""
    return [Outcome(f"{label}: {type(exc).__name__}: {exc}"[:300], False, False)] * count


def _guarded(label, fn, count=1):
    """A check whose raised errors become ``count`` failed outcomes."""

    def run(*args):
        try:
            return fn(*args)
        except Exception as exc:  # the benchmark keeps running and reports it
            return failures(label, exc, count)

    return run


def _worked_example_checks(workdir):
    checks = []
    for name, (cfg, a_ref, nu_ref) in WORKED_EXAMPLES.items():
        def check(name=name, cfg=cfg, a_ref=a_ref, nu_ref=nu_ref):
            rep = _solve_and_read(cfg, workdir, "worked-" + name.replace(":", "_"))
            ok = (Fraction(rep["availability"]["rational"]) == a_ref
                  and Fraction(rep["frequency"]["rational"]) == nu_ref)
            return [Outcome(f"worked example {name}", ok, True)]

        checks.append(_guarded(f"worked example {name}", check))
    return checks


def _decimal(rng, lo, hi, digits=2):
    """A seeded decimal string in [lo, hi] with the given digits."""
    scale = 10**digits
    return f"{rng.randint(round(lo * scale), round(hi * scale)) / scale:.{digits}f}"


# ---------------------------------------------------------------------------
# exact-kofn


def exact_kofn(rng, tiny, workdir):
    k, n = (3, 8) if tiny else (50, 200)
    cfg = {
        "family": "kofn-g",
        "k": k,
        "rate_convention": "steady-state-mu",
        "components": [{"id": f"c{i}", "p": _decimal(rng, 0.5, 0.99)} for i in range(n)],
    }
    cfg_path = os.path.join(workdir, "kofn.json")
    out_path = os.path.join(workdir, "kofn.out.json")
    _write_json(cfg_path, cfg)
    ref = {}

    def prepare():
        ref["a"], ref["nu"] = kofn_g_reference(cfg)

    def check(code):
        _check_exit(code)
        rep = _read_report(out_path)
        ok = (Fraction(rep["availability"]["rational"]) == ref["a"]
              and Fraction(rep["unavailability"]["rational"]) == 1 - ref["a"]
              and Fraction(rep["frequency"]["rational"]) == ref["nu"])
        return [Outcome(f"kofn-g {k}/{n} against Poisson-binomial DP", ok, True)]

    return Workload(
        "exact-kofn", "solve_s", 1,
        _solve_op(cfg_path, out_path), _guarded("kofn solve", check),
        _worked_example_checks(workdir), prepare, out_path,
    )


# ---------------------------------------------------------------------------
# exact-ladder


def _ladder_component(rng, cid, lo, hi, digits=2):
    return {"id": cid, "p": _decimal(rng, lo, hi, digits), "lambda": _decimal(rng, 0.1, 2.0, 1)}


def ladder_config(rng, cells, lo=0.8, hi=0.99, digits=2):
    """Heterogeneous ladder: every edge and node a distinct seeded component."""
    rows = [{key: _ladder_component(rng, f"{key}0", lo, hi, digits) for key in "bST"}]
    for i in range(1, cells + 1):
        rows.append({key: _ladder_component(rng, f"{key}{i}", lo, hi, digits) for key in "abcST"})
    return {"family": "ladder", "rate_convention": "explicit", "terminal": "Tn", "cells": rows}


def _identical_chain(p, rho, lam, xi, cells):
    """Identical parameters, built cell by cell with distinct ids."""
    def comp(cid, avail, rate):
        return {"id": cid, "p": avail, "lambda": rate}

    rows = [{"b": comp("b0", p, lam), "S": comp("S0", rho, xi), "T": comp("T0", rho, xi)}]
    for i in range(1, cells + 1):
        rows.append({
            "a": comp(f"a{i}", p, lam), "b": comp(f"b{i}", p, lam), "c": comp(f"c{i}", p, lam),
            "S": comp(f"S{i}", rho, xi), "T": comp(f"T{i}", rho, xi),
        })
    return {"family": "ladder", "rate_convention": "explicit", "terminal": "Tn", "cells": rows}


def _ladder_structure(cfg):
    """Oracle structure function of a ladder config, from its edges alone.

    Built here rather than by ``relfreq.ladder.ladder_structure`` so that the
    oracle check shares no code with the ladder builder it checks.
    """
    from relfreq.oracle import connectivity_structure

    cells = cfg["cells"]
    ids, nodes, edges = [], [], []
    for i, cell in enumerate(cells):
        nodes += [cell["S"]["id"], cell["T"]["id"]]
        if i > 0:
            prev = cells[i - 1]
            edges.append((cell["a"]["id"], prev["S"]["id"], cell["S"]["id"]))
            edges.append((cell["c"]["id"], prev["T"]["id"], cell["T"]["id"]))
        edges.append((cell["b"]["id"], cell["S"]["id"], cell["T"]["id"]))
        ids += [cell[key]["id"] for key in cell]
    terminal = cells[-1]["T"]["id"]
    return connectivity_structure(ids, nodes, edges, cells[0]["S"]["id"], terminal)


def _exact_matches_mod(rep, ref):
    return (rational_mod(rep["availability"]["rational"]) == ref[0]
            and rational_mod(rep["frequency"]["rational"]) == ref[1])


def exact_ladder(rng, tiny, workdir):
    cells, prefix, oracle_cells, chain = (5, 3, 1, 3) if tiny else (600, 150, 2, 60)
    cfg = ladder_config(rng, cells)
    cfg_path = os.path.join(workdir, "ladder.json")
    out_path = os.path.join(workdir, "ladder.out.json")
    _write_json(cfg_path, cfg)
    prefix_cfg = dict(cfg, cells=cfg["cells"][: prefix + 1])
    oracle_cfg = dict(cfg, cells=cfg["cells"][: oracle_cells + 1])
    chain_params = (_decimal(rng, 0.8, 0.99), _decimal(rng, 0.8, 0.99),
                    _decimal(rng, 0.1, 2.0, 1), _decimal(rng, 0.1, 2.0, 1))
    chain_cfg = _identical_chain(*chain_params, chain)
    ref = {}

    def prepare():
        ref["full"] = ladder_reference(cfg, modular=True)
        ref["full_float"] = ladder_reference(cfg, modular=False)
        ref["prefix"] = ladder_reference(prefix_cfg, modular=True)

    def check(code):
        _check_exit(code)
        rep = _read_report(out_path)
        return [Outcome(f"ladder {cells} cells exact, against frontier DP mod 2^61-1",
                        _exact_matches_mod(rep, ref["full"]), True)]

    def prefix_check():
        rep = _solve_and_read(prefix_cfg, workdir, "ladder-prefix")
        return [Outcome(f"ladder {prefix}-cell prefix exact, against frontier DP mod 2^61-1",
                        _exact_matches_mod(rep, ref["prefix"]), True)]

    def oracle_check():
        from relfreq.oracle import oracle_availability, oracle_frequency

        rep = _solve_and_read(oracle_cfg, workdir, "ladder-oracle")
        sf = _ladder_structure(oracle_cfg)
        comps = [c for cell in oracle_cfg["cells"] for c in cell.values()]
        probs = {c["id"]: Fraction(c["p"]) for c in comps}
        rates = {c["id"]: Fraction(c["lambda"]) for c in comps}
        ok = (Fraction(rep["availability"]["rational"]) == oracle_availability(sf, probs)
              and Fraction(rep["frequency"]["rational"]) == oracle_frequency(sf, probs, rates))
        return [Outcome(f"ladder {oracle_cells}-cell prefix ({len(comps)} components) against oracle",
                        ok, True)]

    def closed_form_check():
        from relfreq.ladder import LadderIdenticalParams, ladder_closed_form

        rep = _solve_and_read(chain_cfg, workdir, "ladder-identical")
        p, rho, lam, xi = (Fraction(x) for x in chain_params)
        _, r_t = ladder_closed_form(LadderIdenticalParams(p, rho, lam, xi, chain), "exact")
        return [Outcome(f"identical {chain}-cell chain against ladder_closed_form",
                        Fraction(rep["availability"]["rational"]) == r_t, True)]

    def approx_check():
        rep = _solve_and_read(cfg, workdir, "ladder-approx", mode="approx")
        a_ref, nu_ref = ref["full_float"]
        ok = (_rel_close(float(rep["availability"]["decimal"]), a_ref, APPROX_VS_REFERENCE)
              and _rel_close(float(rep["frequency"]["decimal"]), nu_ref, APPROX_VS_REFERENCE))
        return [Outcome(f"ladder {cells} cells approx, within {APPROX_VS_REFERENCE:g} of float DP",
                        ok, False)]

    extra = _worked_example_checks(workdir) + [
        _guarded("ladder prefix", prefix_check),
        _guarded("ladder oracle", oracle_check),
        _guarded("ladder closed form", closed_form_check),
        _guarded("ladder approx", approx_check),
    ]
    return Workload(
        "exact-ladder", "solve_s", 1,
        _solve_op(cfg_path, out_path), _guarded("ladder solve", check),
        extra, prepare, out_path,
    )


# ---------------------------------------------------------------------------
# approx-sweep


def approx_sweep(rng, tiny, workdir):
    n, span = (50, "0.5:0.9:0.2") if tiny else (100_000, "0.05:0.95:0.05")
    lam = _decimal(rng, 0.5, 2.0)
    out_path = os.path.join(workdir, "sweep.csv")
    argv = ["sweep", "--family", "ladder", "--param", "p", "--range", span,
            "--n", str(n), "--lam", lam, "--out", out_path]
    lo, hi, step = (float(x) for x in span.split(":"))
    rows = int(round((hi - lo) / step)) + 1

    def op(_round):
        return _cli(argv)

    def check(code):
        from relfreq.asymptotics import asymptotic_rate

        if code != 0:
            raise RuntimeError(f"sweep exited {code}")
        with open(out_path, newline="") as fh:
            table = list(csv.DictReader(fh))
        outcomes = []
        for row in table:
            p, a = float(row["p"]), float(row["A"])
            rate = float(row["lambda_bar"]) if row["lambda_bar"] else math.nan
            expected = asymptotic_rate(p, n, float(lam))
            ok = a >= sys.float_info.min and _rel_close(rate, expected, APPROX_VS_ASYMPTOTIC)
            outcomes.append(Outcome(
                f"sweep p={p:.2f}: A={a!r} rate={rate!r}, asymptotic_rate={expected!r}",
                ok, False))
        missing = rows - len(table)
        outcomes += [Outcome("sweep row missing", False, False)] * max(missing, 0)
        return outcomes

    return Workload("approx-sweep", "sweep_rows_per_s", rows, op,
                    _guarded("sweep", check, rows), output_path=out_path, outputs=rows)


# ---------------------------------------------------------------------------
# approx-stream


def approx_stream(rng, tiny, workdir):
    cells = 8 if tiny else 1000
    cfg = ladder_config(rng, cells, lo=0.9, hi=0.999, digits=3)
    state = {}

    def prepare():
        from relfreq.core import Component
        from relfreq.ladder import LadderCell, LadderSpec, build_ladder, entry_cell

        def comp(entry):
            return Component(entry["id"], Fraction(entry["p"]), Fraction(entry["lambda"]))

        rows = cfg["cells"]
        spec_cells = [entry_cell(*(comp(rows[0][key]) for key in "bST"))]
        for i, row in enumerate(rows[1:], start=1):
            spec_cells.append(LadderCell(*(comp(row[key]) for key in "abcST"), index=i))
        spec = LadderSpec(tuple(spec_cells))
        state["system"] = build_ladder(spec)
        state["steps"] = [
            (pair, {c.id: (c.p, c.lam) for c in cell.components()})
            for pair, cell in zip(state["system"].pairs, spec.cells)
        ]
        state["ref"] = ladder_reference(cfg, modular=False)

    def op(_round):
        from relfreq import core

        system = state["system"]
        s = core.initial_state(system, "approx")
        for pair, assignment in state["steps"]:
            s = core.stream_step(s, pair, assignment)
        return core.finalize(system, s)

    def check(report):
        a_ref, nu_ref = state["ref"]
        ok = (_rel_close(report.availability, a_ref, APPROX_VS_REFERENCE)
              and _rel_close(report.frequency, nu_ref, APPROX_VS_REFERENCE))
        return [Outcome(f"stream fold of {cells + 1} steps within "
                        f"{APPROX_VS_REFERENCE:g} of float DP", ok, False)]

    return Workload("approx-stream", "stream_steps_per_s", cells + 1,
                    op, _guarded("stream fold", check), prepare=prepare)


# ---------------------------------------------------------------------------
# verify


def verify(rng, tiny, workdir):
    trials, calls = (6, 2) if tiny else (200, 8)
    # One call's cost depends on its random draw (spread about 15% between
    # seeds), so an operation is several calls: the draws vary with the
    # benchmark seed but repeat in every round, so rounds differ only in
    # machine noise.
    seeds = [rng.randrange(1 << 30) for _ in range(calls)]

    def op(_round):
        return [(s, _cli(["verify", "--trials", str(trials), "--seed", str(s)])) for s in seeds]

    def check(results):
        # exit 1 is an engine/oracle mismatch, a wrong exact answer
        return [Outcome(f"verify --trials {trials} --seed {s} exit {code}", code == 0, code == 1)
                for s, code in results]

    return Workload("verify", "verify_trials_per_s", trials * calls, op,
                    _guarded("verify", check, calls), outputs=calls)


WORKLOADS = {
    "exact-kofn": exact_kofn,
    "exact-ladder": exact_ladder,
    "approx-sweep": approx_sweep,
    "approx-stream": approx_stream,
    "verify": verify,
}


def generate(name: str, seed: int, tiny: bool, workdir: str):
    """The workload with its inputs generated from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng, tiny, workdir)
