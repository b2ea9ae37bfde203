"""Command-line front end: solve system descriptions from JSON configs,
sweep parameters to plot-ready CSV, and run randomized verification.

Exit codes: 0 success, 2 parse/usage error, 3 validation error,
1 verification mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import nullcontext, suppress
from functools import lru_cache
from typing import Optional

from . import asymptotics
from .core import (
    Component,
    DimensionMismatchError,
    MatrixPair,
    ReliabilityError,
    TransferSystem,
    single_pass,
)
from .kofn import KofnSpec, build_kofn_g, build_lincon_f, identical_kofn_spec
from .ladder import (
    LadderCell,
    LadderIdenticalParams,
    LadderSpec,
    TERMINAL_S,
    TERMINAL_T,
    build_ladder,
    entry_cell,
    identical_ladder_spec,
)
from .scalars import APPROX, EXACT, parse_scalar, rational_str
from .verify import check_sizes, run_equivalence_trials

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3


class ConfigError(ValueError):
    """Malformed config: wrong structure or unparseable field."""


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return cfg[key]


def _integer(cfg: dict, key: str, default=None) -> int:
    """``cfg[key]`` from a JSON integer or a string that ``int`` parses; a
    float, a boolean or anything else is a config error."""
    value = _require(cfg, key) if default is None else cfg.get(key, default)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        with suppress(ValueError):
            return int(value)
    raise ConfigError(f"config: {key} must be an integer, got {value!r}")


def _scalar(memo: dict, value, where: str, key, cid=None):
    """``value`` read by ``parse_scalar`` through its ``str`` once per text:
    ``memo`` maps the texts a config has read to their (immutable)
    Fractions.  A value it cannot parse is never stored, and is a config
    error that names field ``key`` of ``where`` (and the component ``cid``);
    the message is formatted only on error, as a config may hold thousands
    of scalars."""
    text = str(value)
    x = memo.get(text)
    if x is None:
        try:
            x = memo[text] = parse_scalar(text)
        except ValueError as exc:
            about = "" if cid is None else f" for {cid!r}"
            raise ConfigError(f"{where}: bad {key}{about}: {exc}") from exc
    return x


def _id(value, where: str, term=None) -> str:
    """A component id: a JSON string as it is, or a JSON integer (not a
    boolean) as its decimal string, so ``5`` and ``"5"`` name one component
    in ``components`` and in matrix terms.  Anything else is a config error
    that names the ``id`` field, or the matrix ``term`` that holds it."""
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    about = "id" if term is None else f"id in term {term!r}"
    raise ConfigError(f"{where}: {about} must be a string or an integer, got {value!r}")


def _parse_component(entry: dict, convention: str, where: str, memo: dict) -> Component:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: component entry must be an object")
    # the helpers, in the same order, read only a missing or bad id and a new p
    cid = entry.get("id")
    if type(cid) is not str:
        cid = _id(_require(entry, "id", where), where)
    p = memo.get(str(entry.get("p")))
    if p is None:
        p = _scalar(memo, _require(entry, "p", where), where, "p", cid)
    if convention == "steady-state-mu":
        if "lambda" in entry:
            raise ConfigError(f"{where}: rate_convention 'steady-state-mu' derives lambda of {cid!r}")
        mu = _scalar(memo, entry["mu"], where, "mu", cid) if "mu" in entry else 1
        return Component.steady_state(cid, p, mu)
    if "mu" in entry:
        raise ConfigError(f"{where}: mu of {cid!r} needs rate_convention 'steady-state-mu'")
    lam = _scalar(memo, entry.get("lambda", "0"), where, "lambda", cid)
    return Component(cid, p, lam)


def _parse_poly(entry, where: str, memo: dict) -> list:
    """The (ids, coeff) term items of one matrix entry, a list of terms,
    each [coeff_string] or [coeff_string, [id, ...]], as
    :meth:`MatrixPair.from_entries` takes them: it sums terms over the same
    set of ids and reads p_i p_i as p_i."""
    if not isinstance(entry, list):
        raise ConfigError(f"{where}: matrix entry must be a list of terms")
    terms = []
    for term in entry:
        if not isinstance(term, list) or not (
            len(term) == 1 or len(term) == 2 and isinstance(term[1], list)
        ):
            raise ConfigError(f"{where}: term {term!r} is not [coeff] or [coeff, [id, ...]]")
        coeff = _scalar(memo, term[0], where, "coefficient")
        terms.append(([_id(cid, where, term) for cid in term[1]] if len(term) == 2 else (), coeff))
    return terms


def _parse_matrix(rows, where: str, memo: dict) -> MatrixPair:
    """Square list of rows of entries; only the nonzero entries are kept."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ConfigError(f"{where}: matrix must be a list of rows")
    if any(len(row) != len(rows) for row in rows):
        raise DimensionMismatchError(f"{where}: matrix must be square")
    entries = [
        (r, c, _parse_poly(e, where, memo)) for r, row in enumerate(rows) for c, e in enumerate(row)
    ]
    return MatrixPair.from_entries(len(rows), entries)


def _list(cfg: dict, key: str) -> list:
    """``cfg[key]``, which must be a JSON list."""
    value = _require(cfg, key)
    if not isinstance(value, list):
        raise ConfigError(f"config: {key} must be a list, got {value!r}")
    return value


def _components(cfg: dict, convention: str, memo: dict) -> tuple:
    """The components of the JSON list ``cfg["components"]``."""
    return tuple(
        _parse_component(e, convention, f"components[{i}]", memo)
        for i, e in enumerate(_list(cfg, "components"))
    )


def _vector(cfg: dict, key: str, memo: dict) -> tuple:
    """The scalars of the JSON list ``cfg[key]``."""
    return tuple(_scalar(memo, x, "config", f"{key}[{i}]") for i, x in enumerate(_list(cfg, key)))


def build_from_config(cfg: dict) -> TransferSystem:
    """The system of a parsed JSON config.  Its scalars share one memo that
    lives for this call only: each distinct text is parsed once per config."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    memo = {}
    family = _require(cfg, "family")
    convention = cfg.get("rate_convention", "explicit")
    if convention not in ("explicit", "steady-state-mu"):
        raise ConfigError(f"unknown rate_convention {convention!r}")

    if family in ("kofn-g", "lincon-f"):
        comps = _components(cfg, convention, memo)
        build = build_kofn_g if family == "kofn-g" else build_lincon_f
        return build(KofnSpec(_integer(cfg, "k"), comps))

    if family == "ladder":
        terminal = cfg.get("terminal", TERMINAL_T)
        if "cells" in cfg:
            cells = []
            for i, cell_cfg in enumerate(_list(cfg, "cells")):
                where = f"cells[{i}]"
                if not isinstance(cell_cfg, dict):
                    raise ConfigError(f"{where}: cell must be an object")
                parts = {
                    key: _parse_component(_require(cell_cfg, key, where), convention, where, memo)
                    for key in (("b", "S", "T") if i == 0 else ("a", "b", "c", "S", "T"))
                }
                if i == 0:
                    cells.append(entry_cell(parts["b"], parts["S"], parts["T"]))
                else:
                    cells.append(LadderCell(**parts))
            return build_ladder(LadderSpec(tuple(cells), terminal))
        if convention != "explicit":
            raise ConfigError(
                f"config: an identical ladder takes lambda and xi, so rate_convention "
                f"must be 'explicit', got {convention!r}"
            )
        params = LadderIdenticalParams(
            p=_scalar(memo, _require(cfg, "p"), "config", "p"),
            rho=_scalar(memo, cfg.get("rho", "1"), "config", "rho"),
            lam=_scalar(memo, cfg.get("lambda", "0"), "config", "lambda"),
            xi=_scalar(memo, cfg.get("xi", "0"), "config", "xi"),
            n=_integer(cfg, "n"),
        )
        return build_ladder(identical_ladder_spec(params, terminal))

    if family == "custom-matrices":
        comps = _components(cfg, convention, memo)
        pairs = tuple(
            _parse_matrix(m, f"matrices[{i}]", memo)
            for i, m in enumerate(_list(cfg, "matrices"))
        )
        v_left = _vector(cfg, "v_left", memo)
        v_right = _vector(cfg, "v_right", memo)
        offset = _scalar(memo, cfg.get("offset", "0"), "config", "offset")
        # "sign" is a factor of v_left: A = offset + sign * (vL . product . vR)
        sign = _integer(cfg, "sign", 1)
        if sign not in (1, -1):
            raise ReliabilityError("sign must be +1 or -1")
        return TransferSystem(
            v_left=tuple(sign * x for x in v_left),
            pairs=pairs,
            v_right=v_right,
            offset=offset,
            components=comps,
            family="custom-matrices",
        )

    raise ConfigError(f"unknown family {family!r}")


def cmd_solve(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON (line {exc.lineno}, col {exc.colno}): {exc.msg}",
              file=sys.stderr)
        return EXIT_PARSE
    try:
        system = build_from_config(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ReliabilityError, ValueError, TypeError, KeyError) as exc:
        print(f"error: invalid system description: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        report = single_pass(system, mode=args.mode)
    except ReliabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # a float A can leave [0, 1] by rounding; an exact one only when the
    # matrices describe no availability
    if args.mode == EXACT and not 0 <= report.availability <= 1:
        print(f"error: availability A = {rational_str(report.availability)} outside [0, 1]",
              file=sys.stderr)
        return EXIT_VALIDATION
    # under steady-state-mu the frequencies are multiples of the repair rate
    unit = "mu" if cfg.get("rate_convention") == "steady-state-mu" else "absolute"
    payload = json.dumps(report.as_dict(unit), indent=2, sort_keys=True)
    return _write_out(args.out, payload + "\n")


def _write_out(path: Optional[str], text: str) -> int:
    """Write ``text`` to the file at ``path``, or to stdout when there is none;
    an output that cannot be written is a usage error."""
    try:
        with open(path, "w", newline="") if path else nullcontext(sys.stdout) as out:
            out.write(text)
    except OSError as exc:
        print(f"error: cannot write {path or 'stdout'}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def _parse_range(text: str, integral: bool):
    """Values a, a + step, ... up to b.  Row i of a real range is the exact
    rational a + i * step of the decimal strings, so the values do not
    drift as repeated float sums do."""
    try:
        a, b, step = (int(x) if integral else parse_scalar(x) for x in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}, expected a:b:step") from exc
    if step <= 0 or b < a:
        raise ConfigError(f"bad range {text!r}: need step > 0 and b >= a")
    count = (b - a) // step + 1
    return [a + i * step for i in range(count)]


def _sweep_point(args, fixed: dict, param: str, value):
    """One sweep row: (A, log10_A, nu_bar, lambda_bar), and for a ladder of
    perfect nodes and 0 < p < 1 (dLnZeta, dLnAlpha).
    ``fixed`` holds the parsed --p, --rho, --lam and --xi and the --n, and
    ``value`` is exact; the CSV gets it as a float.  Every family's system
    is one run of one shared component or cell, so a row costs O(log n)."""
    fixed = {**fixed, param: value}
    n = int(fixed["n"])
    if args.family == "ladder":
        params = LadderIdenticalParams(fixed["p"], fixed["rho"], fixed["lam"], fixed["xi"], n)
        system = build_ladder(identical_ladder_spec(params, args.terminal))
    else:
        build = build_kofn_g if args.family == "kofn-g" else build_lincon_f
        system = build(identical_kofn_spec(args.k, n, fixed["p"], fixed["lam"]))
    report = single_pass(system, mode=APPROX)
    row = {
        param: value if param == "n" else float(value),
        "A": report.availability,
        "log10_A": report.log10_availability,  # csv writes None as ""
        "nu_bar": report.frequency,
        "lambda_bar": report.failure_rate if report.failure_rate is not None else "",
    }
    p_val = float(fixed["p"])
    # the log-derivatives hold for perfect nodes only; csv writes a missing cell as ""
    if args.family == "ladder" and 0 < p_val < 1 and float(fixed["rho"]) == 1.0:
        row["dLnZeta"], row["dLnAlpha"] = asymptotics.log_derivatives(p_val)
    return row


# sweep options that apply to some families only, and their defaults: --k
# to kofn-g and lincon-f, the others to the ladder
FAMILY_OPTIONS = {"k": 2, "rho": "1", "xi": "0", "terminal": TERMINAL_T}


def cmd_sweep(args) -> int:
    try:
        values = _parse_range(args.range, integral=(args.param == "n"))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    ladder = args.family == "ladder"
    if args.param == "rho" and not ladder:
        print("error: rho only applies to the ladder family", file=sys.stderr)
        return EXIT_PARSE
    # an option that changes nothing for the family is refused, not ignored
    for name, default in FAMILY_OPTIONS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif (name == "k") == ladder:
            families = "kofn-g and lincon-f" if name == "k" else "the ladder family"
            print(f"error: --{name} only applies to {families}", file=sys.stderr)
            return EXIT_PARSE
    fixed = {"n": args.n}
    for name in ("p", "rho", "lam", "xi"):
        try:
            fixed[name] = parse_scalar(getattr(args, name))
        except ValueError as exc:
            print(f"error: --{name}: {exc}", file=sys.stderr)
            return EXIT_PARSE
    fieldnames = [args.param, "A", "log10_A", "nu_bar", "lambda_bar"]
    if args.family == "ladder":
        fieldnames += ["dLnZeta", "dLnAlpha"]
    rows = []
    try:
        for v in values:
            rows.append(_sweep_point(args, fixed, args.param, v))
    except (ReliabilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    return _write_out(args.out, text.getvalue())


def cmd_verify(args) -> int:
    try:
        check_sizes(args.trials, args.max_components)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    m = run_equivalence_trials(
        trials=args.trials,
        max_components=args.max_components,
        seed=args.seed,
    )
    if m is None:
        print(f"verify: {args.trials} randomized instances, all exact matches")
        return EXIT_OK
    print("verify: MISMATCH")
    print(f"  instance: {m.description}")
    print(f"  quantity: {m.quantity}")
    print(f"  transfer-matrix: {m.matrix_value}")
    print(f"  oracle:          {m.oracle_value}")
    return EXIT_MISMATCH


@lru_cache(maxsize=None)
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    leaves it as it is and makes a new namespace per call."""
    parser = argparse.ArgumentParser(
        prog="relfreq",
        description="Exact availability and failure frequency via transfer matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a JSON system description")
    p_solve.add_argument("config", help="path to JSON config")
    p_solve.add_argument("--mode", choices=[EXACT, APPROX], default=EXACT)
    p_solve.add_argument("--out", help="write the JSON report here (default stdout)")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="sweep a parameter to CSV")
    p_sweep.add_argument("--family", choices=["kofn-g", "lincon-f", "ladder"], required=True)
    p_sweep.add_argument("--param", choices=["p", "rho", "n"], required=True)
    p_sweep.add_argument("--range", required=True, help="a:b:step")
    p_sweep.add_argument("--out", help="CSV output path (default stdout)")
    p_sweep.add_argument("--k", type=int)
    p_sweep.add_argument("--n", type=int, default=5)
    p_sweep.add_argument("--p", default="0.9")
    p_sweep.add_argument("--rho")
    p_sweep.add_argument("--lam", default="1")
    p_sweep.add_argument("--xi")
    p_sweep.add_argument("--terminal", choices=[TERMINAL_S, TERMINAL_T])
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="randomized oracle-equivalence check")
    p_verify.add_argument("--max-components", type=int, default=12)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
