"""One benchmark process, started by run.py: a fresh interpreter per phase.

``--phase setup`` imports relfreq.cli, generates the workload's inputs and
reports how long that took.  ``--phase run`` does the same, then runs the
closed loop -- one operation, then the next, single-threaded -- for the
given seconds and prints one JSON object describing the run.  With
``--trace 1`` each round runs the operation untraced and then traced on the
same inputs, so the tracing overhead is measured in the same process.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import Probe  # noqa: E402
from workloads import clear, failures, generate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    import relfreq.cli

    where = Path(relfreq.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"relfreq imported from {where}, not from {SRC}")


def _timed(workload, round_index, probe=None):
    """(seconds, speed factor, output, error) of one timed operation.

    With a probe the seconds exclude its handler, and the speed factor is
    the machine's slowdown while the operation ran (see probe.py); without
    one the factor is None.
    """
    if workload.output_path:
        clear(workload.output_path)
    out, error = None, None
    t0 = time.perf_counter()
    if probe is not None:
        probe.start()
    try:
        out = workload.op(round_index)
    except Exception as exc:  # a failed operation is counted, not fatal
        error = exc
    if probe is None:
        return time.perf_counter() - t0, None, out, error
    inside = probe.stop()
    return time.perf_counter() - t0 - inside, probe.speed_factor(), out, error


def _judge(workload, out, error):
    if error is not None:
        return failures(f"{workload.name} operation", error, workload.outputs)
    return workload.check(out)


def run_loop(workload, seconds, tracer):
    """Rounds for ``seconds``: at least one, and another only while a round
    of the mean length so far still fits, so a run of multi-second rounds
    on a slowed host does not overrun by a whole round."""
    times, speeds, traced_times, traced_ops, outcomes = [], [], [], [], []
    probe = Probe()
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        elapsed, speed, out, error = _timed(workload, rounds, probe)
        times.append(elapsed)
        speeds.append(speed)
        outcomes += _judge(workload, out, error)
        if tracer is not None:
            tracer.install()
            tracer.begin_op(rounds)
            try:
                elapsed, _, out, error = _timed(workload, rounds)
            finally:
                tracer.uninstall()
            traced_times.append(elapsed)
            traced_ops.append(tracer.end_op())
            outcomes += _judge(workload, out, error)
        for check in workload.extra_checks:
            outcomes += check()
        rounds += 1
    return times, speeds, traced_times, traced_ops, outcomes


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--phase", choices=["setup", "run"], required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    _import_program()
    workload = generate(args.workload, args.seed, args.tiny, args.workdir)
    setup_s = time.perf_counter() - T0
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload.prepare()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    times, speeds, traced_times, traced_ops, outcomes = run_loop(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    failed = [o for o in outcomes if not o.ok]
    result = {
        "setup_s": setup_s,
        "metric": workload.metric,
        "items": workload.items,
        "op_times": times,
        "op_speeds": speeds,
        "attempted": len(outcomes),
        "failed": len(failed),
        "incorrect": sum(o.exact for o in failed),
        "failure_labels": sorted({o.label for o in failed})[:25],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result.update(traced_times=traced_times, traced_ops=traced_ops,
                      present=sorted(tracer.present))
        if args.spans_out:
            os.makedirs(os.path.dirname(args.spans_out), exist_ok=True)
            keys = ("op", "span", "parent", "start", "end")
            with open(args.spans_out, "w") as fh:
                json.dump([dict(zip(keys, s)) for s in tracer.spans], fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
