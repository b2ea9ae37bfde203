#!/usr/bin/env python3
"""Print, as JSON, the in-process best time of each layer of a solve.

For each of four fixed, seeded systems, built as ``output_digest.py``
builds its inputs, the layers are timed one at a time, each over
``REPEATS`` calls, and the best (least) time of each is printed in
seconds.  As ``timeit`` advises, the least time is the one to read: on a
shared host, a slower call measures the host's other load, not the code.

* ``parse`` -- ``json.loads`` of the config text;
* ``build`` -- ``build_from_config``, the system from the parsed config;
* ``compile`` -- the numeric step of every distinct matrix pair;
* ``fold`` -- the fold over the system's runs with those steps already
  compiled, so that compiling is not counted twice;
* ``finalize`` -- A, U, nu and nu/A from the folded state;
* ``as_dict`` -- the report as JSON-ready blocks.

The systems are exact 600- and 2400-cell heterogeneous ladders, an exact
50-of-200:G system and the approx 100000-cell identical ladder that
``relfreq sweep`` solves.  ``approx_squaring`` is the best of 100 times
``REPEATS`` squarings of that ladder's compiled 3x3 cell step.
``approx_stream_step`` is the time per ``stream_step`` call of a
streamed approx fold of a seeded 1000-cell heterogeneous ladder, each
call given its cell's own ``{id: (p, lam)}`` map, as the benchmark's
stream workload builds them: the compile and the advance of one cell.
It sums the least time of each batch of ``BATCH`` calls over
``REPEATS`` folds.  ``first_compile`` is, for the ladder cell's layout
and the k-of-n:G layout in each mode, the best time of a pair's first
compile and its layout's advance from empty kernel and advance caches:
what generating the layout's two kernels adds, once per process, to its
first use.  ``distinct_coefficient_pairs``
gives, for each mode, the kernels generated and the best seconds taken
to compile the 200 pairs of a custom-matrices config from an empty
kernel cache, each time built afresh: 3x3 pairs over x_i and x_{i+1} of
one term structure, each coefficient its own seeded k/d.  ``--tiny``
shrinks every system, for a smoke test:

    PYTHONPATH=src python3 scripts/layer_times.py
"""

import argparse
import json
import random
import sys
import time
from unittest import mock

from output_digest import heterogeneous_ladder, kofn_50_of_200

from relfreq import core
from relfreq.cli import build_from_config
from relfreq.core import Layout, MatrixPair

REPEATS = 40
BATCH = 50  # stream_step calls timed together


def identical_ladder(cells):
    return {"family": "ladder", "rate_convention": "explicit", "terminal": "Tn",
            "p": "0.9", "rho": "0.99", "lambda": "3/2", "xi": "1/2", "n": cells}


def kofn(rng, k, n):
    cfg = kofn_50_of_200(rng)
    return dict(cfg, k=k, components=cfg["components"][:n])


def systems(tiny):
    """{name: (config, mode)} of the timed systems."""
    small, large, k, n, identical = (6, 24, 5, 20, 1000) if tiny else (600, 2400, 50, 200, 100_000)
    return {
        f"ladder-{small}": (heterogeneous_ladder(random.Random(600), small), "exact"),
        f"ladder-{large}": (heterogeneous_ladder(random.Random(2400), large), "exact"),
        f"kofn-{k}-of-{n}-G": (kofn(random.Random(200), k, n), "exact"),
        f"identical-ladder-{identical}": (identical_ladder(identical), "approx"),
    }


def best_time(call, repeats):
    """(least seconds of ``repeats`` calls, the last call's result)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - start)
    return best, out


def layer_times(cfg, mode):
    """{layer: best seconds} of one config solved in ``mode``."""
    text = json.dumps(cfg)
    out = {}
    out["parse"], parsed = best_time(lambda: json.loads(text), REPEATS)
    out["build"], system = best_time(lambda: build_from_config(parsed), REPEATS)
    assignment = system.default_assignment()
    pairs = list({id(pair): pair for pair, _ in system.pairs.runs}.values())
    out["compile"], steps = best_time(
        lambda: {id(pair): core._compile(pair, assignment, mode) for pair in pairs}, REPEATS)
    start = core.initial_state(system, mode)
    with mock.patch.object(core, "_compile", lambda pair, _assignment, _mode: steps[id(pair)]):
        out["fold"], state = best_time(lambda: core._fold(start, system.pairs.runs, assignment), REPEATS)
    out["finalize"], report = best_time(lambda: core.finalize(system, state), REPEATS)
    out["as_dict"], _ = best_time(report.as_dict, REPEATS)
    return out


def squaring_time(cfg):
    """Best seconds of one approx squaring of the last pair's step."""
    system = build_from_config(cfg)
    cell = core._compile(system.pairs.runs[-1][0], system.default_assignment(), "approx")
    return best_time(lambda: core._mul(cell, cell, "approx"), REPEATS * 100)[0]


def stream_step_time(cells):
    """Best seconds per approx ``stream_step`` of a streamed fold: each of
    ``REPEATS`` folds is timed in batches of ``BATCH`` calls, and the least
    time of each batch is summed over the fold, so that a burst of load on
    the host spoils one batch of a fold, not the whole fold."""
    system = build_from_config(heterogeneous_ladder(random.Random(cells), cells))
    values = system.default_assignment()
    steps = [(pair, {cid: values[cid] for cid in pair.ids}) for pair in system.pairs]
    batches = [steps[i:i + BATCH] for i in range(0, len(steps), BATCH)]
    best = [float("inf")] * len(batches)
    for _ in range(REPEATS):
        state = core.initial_state(system, "approx")
        for b, batch in enumerate(batches):
            start = time.perf_counter()
            for pair, assignment in batch:
                state = core.stream_step(state, pair, assignment)
            best[b] = min(best[b], time.perf_counter() - start)
    return sum(best) / len(steps)


def first_compile_time(system, mode):
    """Best seconds of the first compile of the system's last pair and of
    reading its layout's advance, each time bound to a new layout equal to
    its own with the kernel and advance caches emptied, so that both
    kernels are generated."""
    pair = system.pairs.runs[-1][0]
    layout, assignment = pair.layout, system.default_assignment()
    best = float("inf")
    for _ in range(REPEATS):
        core._kernel.cache_clear()
        core._advance_kernel.cache_clear()
        fresh = MatrixPair(Layout(layout.dim, layout.rows, layout.polys), pair.ids)
        start = time.perf_counter()
        core._compile(fresh, assignment, mode)
        getattr(fresh.layout, f"{mode}_advance")
        best = min(best, time.perf_counter() - start)
    return best


def distinct_coefficient_config(rng, count):
    """A custom-matrices config of ``count`` 3x3 pairs over x_i and x_{i+1}
    with one term structure, each coefficient a random k/d of at most 1/4,
    so that every row sums to at most 1 and A lies in [0, 1]."""
    ids = [f"x{i:03d}" for i in range(count + 1)]

    def c():
        d = rng.randint(4, 40)
        return f"{rng.randint(1, d // 4)}/{d}"

    matrices = [[[[[c(), [a]]], [[c(), [a, b]]], []],
                 [[[c(), []], [c(), [a]]], [[c(), [b]]], [[c(), []]]],
                 [[], [], [[c(), [b]], [c(), [a, b]]]]] for a, b in zip(ids, ids[1:])]
    return {"family": "custom-matrices",
            "components": [{"id": cid, "p": f"{rng.randint(900, 999)}/1000", "lambda": f"{rng.randint(1, 9)}/7"}
                           for cid in ids],
            "v_left": ["1", "0", "0"], "v_right": ["1", "1", "1"], "matrices": matrices}


def distinct_coefficient_times(count, repeats):
    """{mode: {"kernels": generated, "compile": best seconds}} of compiling
    every pair of :func:`distinct_coefficient_config` from an empty kernel
    cache, the system built afresh before each of ``repeats`` timings."""
    cfg = distinct_coefficient_config(random.Random(200), count)
    out = {}
    for mode in ("exact", "approx"):
        best = float("inf")
        for _ in range(repeats):
            system = build_from_config(cfg)
            assignment = system.default_assignment()
            core._kernel.cache_clear()
            start = time.perf_counter()
            for pair, _ in system.pairs.runs:
                core._compile(pair, assignment, mode)
            best = min(best, time.perf_counter() - start)
        out[mode] = {"kernels": core._kernel.cache_info().misses, "compile": best}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="tiny systems, for a smoke test")
    args = parser.parse_args(argv)
    timed = systems(args.tiny)
    result = {name: layer_times(cfg, mode) for name, (cfg, mode) in timed.items()}
    # the identical ladder's last pair is its interior cell
    identical, _ = list(timed.values())[-1]
    result["approx_squaring"] = squaring_time(identical)
    result["approx_stream_step"] = stream_step_time(8 if args.tiny else 1000)
    configs = [cfg for cfg, _ in timed.values()]
    ladder, kofn_g = build_from_config(configs[0]), build_from_config(configs[2])
    result["first_compile"] = {name: {mode: first_compile_time(system, mode) for mode in ("exact", "approx")}
                               for name, system in (("ladder-cell", ladder), ("kofn-G", kofn_g))}
    result["distinct_coefficient_pairs"] = distinct_coefficient_times(20 if args.tiny else 200,
                                                                      2 if args.tiny else 5)
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
