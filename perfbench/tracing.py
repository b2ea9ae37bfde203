"""Spans and counters for the traced run, recorded from outside the program.

``Tracer.install`` wraps the public functions of each relfreq layer and
rebinds every module-level name that refers to them, so a call through
``relfreq.cli.single_pass`` is traced exactly like one through
``relfreq.core.single_pass``.  ``uninstall`` puts the originals back, so
untraced operations in the same process run the program unmodified.

Hot leaf functions (polynomial evaluation, the rate operator, stream steps)
are called up to a million times per operation, so every span is folded into
per-name totals of calls, time and self time (time minus the traced child
spans it contains) instead of being stored.  The coarse spans -- builders,
passes, reports, oracle calls -- are also kept individually, with their parent
span and operation index, and written out when the run ends.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute path).  Two builders share the kofn span.
TARGETS = (
    ("cli.parse", "relfreq.cli", "build_from_config"),
    ("kofn.build", "relfreq.kofn", "build_kofn_g"),
    ("kofn.build", "relfreq.kofn", "build_lincon_f"),
    ("ladder.build", "relfreq.ladder", "build_ladder"),
    ("core.evaluate", "relfreq.core", "MultilinearPoly.evaluate"),
    ("core.rate_op", "relfreq.core", "apply_rate_operator"),
    ("core.pass", "relfreq.core", "single_pass"),
    ("core.stream_step", "relfreq.core", "stream_step"),
    ("core.finalize", "relfreq.core", "finalize"),
    ("core.report", "relfreq.core", "ReliabilityReport.as_dict"),
    ("oracle.availability", "relfreq.oracle", "oracle_availability"),
    ("oracle.frequency", "relfreq.oracle", "oracle_frequency"),
    ("verify", "relfreq.verify", "run_equivalence_trials"),
)

HOT = frozenset({"core.evaluate", "core.rate_op", "core.stream_step"})
BUILD_SPANS = frozenset({"cli.parse", "kofn.build", "ladder.build"})
PASS_SPANS = frozenset({"core.pass", "core.stream_step"})

# Counters read from the systems and results a pass sees.
SYSTEM_COUNTERS = ("core.steps", "core.distinct_pairs", "core.nonzeros")
RESULT_COUNTERS = ("core.result_bits", "core.subnormal_results")

# Per-layer metrics: name -> (unit, span it needs, how it is read).
# Times are seconds per operation (median over traced operations); counts
# are per operation and repeat exactly for a given seed.
LAYER_METRICS = {
    "cli.parse_s": ("s", "cli.parse", ("self",)),
    "kofn.build_s": ("s", "kofn.build", ("self",)),
    "ladder.build_s": ("s", "ladder.build", ("self",)),
    "core.evaluate_s": ("s", "core.evaluate", ("total",)),
    "core.evaluate.calls": ("count", "core.evaluate", ("calls",)),
    "core.evaluate.zero_frac": ("frac", "core.evaluate", ("counter", "core.evaluate.zero")),
    "core.rate_op_s": ("s", "core.rate_op", ("total",)),
    "core.rate_op.calls.build": ("count", "core.rate_op", ("counter", "core.rate_op.calls.build")),
    "core.rate_op.calls.pass": ("count", "core.rate_op", ("counter", "core.rate_op.calls.pass")),
    "core.pass_s": ("s", "core.pass", ("total",)),
    "core.fold_s": ("s", "core.pass", ("self",)),
    "core.steps": ("count", "core.pass", ("counter", "core.steps")),
    "core.distinct_pairs": ("count", "core.pass", ("counter", "core.distinct_pairs")),
    "core.nonzeros": ("count", "core.pass", ("counter", "core.nonzeros")),
    "core.result_bits": ("bits", "core.pass", ("counter", "core.result_bits")),
    "core.subnormal_results": ("count", "core.pass", ("counter", "core.subnormal_results")),
    "core.stream_step_s": ("s", "core.stream_step", ("per_call",)),
    "core.report_s": ("s", "core.report", ("total",)),
    "oracle.availability_s": ("s", "oracle.availability", ("total",)),
    "oracle.frequency_s": ("s", "oracle.frequency", ("total",)),
    "oracle.states": ("count", "oracle.availability", ("counter", "oracle.states")),
    "verify.self_s": ("s", "verify", ("self",)),
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) or None when the name no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    def __init__(self):
        self.present = set()
        self.spans = []
        self._stack = []
        self._restore = []
        self._op = -1
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, time, self time
        self.counters = defaultdict(int)
        self.broken = set()  # counters whose source no longer has the expected shape

    # -- installing -------------------------------------------------------

    def install(self):
        """Wrap every target and rebind every relfreq name bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "relfreq" or n.startswith("relfreq."))]
        for span, module_name, path in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, original = found
            self.present.add(span)
            wrapper = self._wrap(span, original)
            self._rebind(owner, attr, original, wrapper)
            if not isinstance(owner, type):
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._rebind(module, name, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- recording ---------------------------------------------------------

    def begin_op(self, index: int):
        self._op = index
        self.totals.clear()
        self.counters.clear()
        self.broken.clear()

    def end_op(self) -> dict:
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "counters": dict(self.counters),
            "broken": sorted(self.broken),
        }

    def _wrap(self, span, fn):
        stack = self._stack
        totals = self.totals
        hook = getattr(self, "_after_" + span.replace(".", "_"), None)
        keep = span not in HOT

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                elapsed = t1 - t0
                if stack:
                    stack[-1][1] += elapsed
                agg = totals[span]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                if keep:
                    self.spans.append((self._op, span, parent, t0, t1))
            if hook is not None:
                h0 = perf_counter()
                hook(args, result)
                if stack:  # counting is tracing cost, not the parent's own work
                    stack[-1][1] += perf_counter() - h0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # Hooks run after the span is popped, so the stack holds its ancestors.

    def _after_core_rate_op(self, args, result):
        for name, _ in reversed(self._stack):
            if name in BUILD_SPANS:
                self.counters["core.rate_op.calls.build"] += 1
                return
            if name in PASS_SPANS:
                self.counters["core.rate_op.calls.pass"] += 1
                return

    def _after_core_evaluate(self, args, result):
        if result == 0:
            self.counters["core.evaluate.zero"] += 1

    def _after_core_pass(self, args, result):
        self._read_system(args[0] if args else None)
        self._read_result(result)

    def _after_core_finalize(self, args, result):
        # single_pass ends in finalize; count only folds that call it directly
        if not any(name == "core.pass" for name, _ in self._stack):
            self._read_system(args[0] if args else None)
            self._read_result(result)

    def _after_oracle_availability(self, args, result):
        self._count_states(args)

    def _after_oracle_frequency(self, args, result):
        self._count_states(args)

    def _read_system(self, system):
        try:
            pairs = list(system.pairs)
            distinct = list({id(p): p for p in pairs}.values())
            nonzeros = sum(not e.is_zero() for p in distinct for row in p.m for e in row)
        except (AttributeError, TypeError):
            self.broken.update(SYSTEM_COUNTERS)
            return
        self.counters["core.steps"] += len(pairs)
        self.counters["core.distinct_pairs"] += len(distinct)
        self.counters["core.nonzeros"] += nonzeros

    def _read_result(self, report):
        try:
            a, nu = report.availability, report.frequency
        except AttributeError:
            self.broken.update(RESULT_COUNTERS)
            return
        if isinstance(a, float):
            if abs(a) < sys.float_info.min:
                self.counters["core.subnormal_results"] += 1
            return
        bits = max(x.bit_length() for v in (a, nu)
                   for x in (v.numerator, v.denominator))
        self.counters["core.result_bits"] = max(self.counters["core.result_bits"], bits)

    def _count_states(self, args):
        try:
            sf, probs = args[0], args[1]
            free = sum(1 for cid in sf.ids if 0 < probs[cid] < 1)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.broken.add("oracle.states")
            return
        self.counters["oracle.states"] += 2**free


def layer_metrics(present: set, traced_ops: list, overhead: float) -> dict:
    """Per-layer metrics from per-operation snapshots of traced operations.

    A metric whose span could not be wrapped, or whose counter source no
    longer has the expected shape, is reported as absent (value None).
    """
    out = {}
    first = traced_ops[0]
    for name, (unit, span, (kind, *arg)) in LAYER_METRICS.items():
        if span not in present or (arg and arg[0] in first["broken"]):
            out[name] = {"value": None, "unit": unit}
            continue
        if kind == "counter":
            key = arg[0]
            if key == "core.evaluate.zero":
                calls = first["totals"].get(span, [0])[0]
                value = first["counters"].get(key, 0) / calls if calls else 0.0
            else:
                value = first["counters"].get(key, 0)
        elif kind == "calls":
            value = first["totals"].get(span, [0])[0]
        else:
            samples = []
            for op in traced_ops:
                calls, total, self_time = op["totals"].get(span, [0, 0.0, 0.0])
                if kind == "total":
                    samples.append(total)
                elif kind == "self":
                    samples.append(self_time)
                else:
                    samples.append(total / calls if calls else 0.0)
            value = statistics.median(samples)
        out[name] = {"value": value, "unit": unit}
    out["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    return out
