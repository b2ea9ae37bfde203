#!/usr/bin/env python3
"""Print, as JSON, the in-process median time of each layer of a solve.

For each of four fixed, seeded systems, built as ``output_digest.py``
builds its inputs, the layers are timed one at a time, each over
``REPEATS`` calls, and the median of each is printed in seconds:

* ``parse`` -- ``json.loads`` of the config text;
* ``build`` -- ``build_from_config``, the system from the parsed config;
* ``compile`` -- the numeric step of every distinct matrix pair;
* ``fold`` -- the fold over the system's runs with those steps already
  compiled, so that compiling is not counted twice;
* ``finalize`` -- A, U, nu and nu/A from the folded state;
* ``as_dict`` -- the report as JSON-ready blocks.

The systems are exact 600- and 2400-cell heterogeneous ladders, an exact
50-of-200:G system and the approx 100000-cell identical ladder that
``relfreq sweep`` solves.  ``approx_squaring`` is the median of 100 times
``REPEATS`` squarings of that ladder's compiled 3x3 cell step.
``approx_stream_step`` is the median over ``REPEATS`` streamed approx
folds of a seeded 1000-cell heterogeneous ladder of a fold's time per
``stream_step`` call, each call given its cell's own ``{id: (p, lam)}``
map, as the benchmark's stream workload builds them: the compile and the
advance of one cell.  ``--tiny`` shrinks every system, for a smoke test:

    PYTHONPATH=src python3 scripts/layer_times.py
"""

import argparse
import json
import random
import statistics
import sys
import time
from unittest import mock

from output_digest import heterogeneous_ladder, kofn_50_of_200

from relfreq import core
from relfreq.cli import build_from_config

REPEATS = 7


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


def median_time(call, repeats):
    """(median seconds of ``repeats`` calls, the last call's result)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - start)
    return statistics.median(times), out


def layer_times(cfg, mode):
    """{layer: median seconds} of one config solved in ``mode``."""
    text = json.dumps(cfg)
    out = {}
    out["parse"], parsed = median_time(lambda: json.loads(text), REPEATS)
    out["build"], system = median_time(lambda: build_from_config(parsed), REPEATS)
    assignment = system.default_assignment()
    pairs = list({id(pair): pair for pair, _ in system.pairs.runs}.values())
    out["compile"], steps = median_time(
        lambda: {id(pair): core._compile(pair, assignment, mode) for pair in pairs}, REPEATS)
    start = core.initial_state(system, mode)
    with mock.patch.object(core, "_compile", lambda pair, _assignment, _mode: steps[id(pair)]):
        out["fold"], state = median_time(lambda: core._fold(start, system.pairs.runs, assignment), REPEATS)
    out["finalize"], report = median_time(lambda: core.finalize(system, state), REPEATS)
    out["as_dict"], _ = median_time(report.as_dict, REPEATS)
    return out


def squaring_time(cfg):
    """Median seconds of one approx squaring of the last pair's step."""
    system = build_from_config(cfg)
    cell = core._compile(system.pairs.runs[-1][0], system.default_assignment(), "approx")
    return median_time(lambda: core._mul(cell, cell, "approx"), REPEATS * 100)[0]


def stream_step_time(cells):
    """Median seconds of one approx ``stream_step`` of a streamed fold."""
    system = build_from_config(heterogeneous_ladder(random.Random(cells), cells))
    values = system.default_assignment()
    steps = [(pair, {cid: values[cid] for cid in pair.ids}) for pair in system.pairs]

    def fold():
        state = core.initial_state(system, "approx")
        for pair, assignment in steps:
            state = core.stream_step(state, pair, assignment)
        return state

    return median_time(fold, REPEATS)[0] / len(steps)


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
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
