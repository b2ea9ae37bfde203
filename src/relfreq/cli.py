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
from typing import Optional

from . import asymptotics
from .core import (
    Component,
    DimensionMismatchError,
    MatrixPair,
    MultilinearPoly,
    ReliabilityError,
    TransferSystem,
    single_pass,
)
from .kofn import KofnSpec, build_kofn_g, build_lincon_f, identical_components
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
from .scalars import APPROX, EXACT, parse_scalar
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


def _parse_component(entry: dict, convention: str, where: str) -> Component:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: component entry must be an object")
    cid = _require(entry, "id", where)
    try:
        p = parse_scalar(str(_require(entry, "p", where)))
    except ValueError as exc:
        raise ConfigError(f"{where}: bad p for {cid!r}: {exc}") from exc
    try:
        mu = parse_scalar(str(entry["mu"])) if "mu" in entry else None
        if convention == "steady-state-mu":
            return Component.steady_state(cid, p, mu if mu is not None else 1)
        lam = parse_scalar(str(entry.get("lambda", "0")))
        return Component(cid, p, lam, mu)
    except ReliabilityError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: bad rate for {cid!r}: {exc}") from exc


def _parse_poly(entry, where: str) -> MultilinearPoly:
    """Entry format: list of terms, each [coeff_string] or [coeff_string,
    [id, ...]].  Terms over the same set of ids are summed, and
    p_i p_i = p_i."""
    if not isinstance(entry, list):
        raise ConfigError(f"{where}: matrix entry must be a list of terms")
    terms = []
    for term in entry:
        if not isinstance(term, list) or not (
            len(term) == 1 or len(term) == 2 and isinstance(term[1], list)
        ):
            raise ConfigError(f"{where}: term {term!r} is not [coeff] or [coeff, [id, ...]]")
        try:
            coeff = parse_scalar(str(term[0]))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        terms.append(([str(cid) for cid in term[1]] if len(term) == 2 else (), coeff))
    return MultilinearPoly(terms)


def _parse_matrix(rows, where: str) -> MatrixPair:
    """Square list of rows of entries; only the nonzero entries are kept."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ConfigError(f"{where}: matrix must be a list of rows")
    if any(len(row) != len(rows) for row in rows):
        raise DimensionMismatchError(f"{where}: matrix must be square")
    entries = [
        (r, c, _parse_poly(e, where)) for r, row in enumerate(rows) for c, e in enumerate(row)
    ]
    return MatrixPair.from_entries(len(rows), entries)


def _list(cfg: dict, key: str) -> list:
    """``cfg[key]``, which must be a JSON list."""
    value = _require(cfg, key)
    if not isinstance(value, list):
        raise ConfigError(f"config: {key} must be a list, got {value!r}")
    return value


def build_from_config(cfg: dict) -> TransferSystem:
    family = _require(cfg, "family")
    convention = cfg.get("rate_convention", "explicit")
    if convention not in ("explicit", "steady-state-mu"):
        raise ConfigError(f"unknown rate_convention {convention!r}")
    rate_unit = "mu" if convention == "steady-state-mu" else "absolute"

    if family in ("kofn-g", "lincon-f"):
        raw = _require(cfg, "components")
        if not isinstance(raw, list) or not raw:
            raise ReliabilityError("component list must be non-empty")
        comps = tuple(
            _parse_component(e, convention, f"components[{i}]") for i, e in enumerate(raw)
        )
        build = build_kofn_g if family == "kofn-g" else build_lincon_f
        return build(KofnSpec(_integer(cfg, "k"), comps, rate_unit=rate_unit))

    if family == "ladder":
        terminal = cfg.get("terminal", TERMINAL_T)
        if "cells" in cfg:
            cells = []
            for i, cell_cfg in enumerate(_list(cfg, "cells")):
                where = f"cells[{i}]"
                if not isinstance(cell_cfg, dict):
                    raise ConfigError(f"{where}: cell must be an object")
                parts = {
                    key: _parse_component(_require(cell_cfg, key, where), convention, where)
                    for key in (("b", "S", "T") if i == 0 else ("a", "b", "c", "S", "T"))
                }
                if i == 0:
                    cells.append(entry_cell(parts["b"], parts["S"], parts["T"]))
                else:
                    cells.append(LadderCell(index=i, **parts))
            return build_ladder(LadderSpec(tuple(cells), terminal))
        params = LadderIdenticalParams(
            p=parse_scalar(str(_require(cfg, "p"))),
            rho=parse_scalar(str(cfg.get("rho", "1"))),
            lam=parse_scalar(str(cfg.get("lambda", "0"))),
            xi=parse_scalar(str(cfg.get("xi", "0"))),
            n=_integer(cfg, "n"),
        )
        return build_ladder(identical_ladder_spec(params, terminal))

    if family == "custom-matrices":
        raw = _require(cfg, "components")
        comps = tuple(
            _parse_component(e, convention, f"components[{i}]") for i, e in enumerate(raw)
        )
        pairs = tuple(
            _parse_matrix(m, f"matrices[{i}]")
            for i, m in enumerate(_list(cfg, "matrices"))
        )
        return TransferSystem(
            v_left=tuple(parse_scalar(str(x)) for x in _list(cfg, "v_left")),
            pairs=pairs,
            v_right=tuple(parse_scalar(str(x)) for x in _list(cfg, "v_right")),
            offset=parse_scalar(str(cfg.get("offset", "0"))),
            sign=_integer(cfg, "sign", 1),
            components=comps,
            rate_unit=rate_unit,
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
    payload = json.dumps(report.as_dict(), indent=2, sort_keys=True)
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
    """One sweep row: (A, log10_A, nu_bar, lambda_bar, d_ln_zeta, d_ln_alpha).
    ``fixed`` holds the parsed --p, --rho, --lam and --xi and the --n, and
    ``value`` is exact; the CSV gets it as a float."""
    fixed = {**fixed, param: value}
    n = int(fixed["n"])
    if args.family == "ladder":
        params = LadderIdenticalParams(
            float(fixed["p"]), float(fixed["rho"]), float(fixed["lam"]),
            float(fixed["xi"]), n,
        )
        system = build_ladder(identical_ladder_spec(params, args.terminal))
    else:
        build = build_kofn_g if args.family == "kofn-g" else build_lincon_f
        system = build(KofnSpec(args.k, identical_components(n, fixed["p"], lam=fixed["lam"])))
    report = single_pass(system, mode=APPROX)
    row = {
        param: value if param == "n" else float(value),
        "A": report.availability,
        "log10_A": report.log10_availability,  # csv writes None as ""
        "nu_bar": report.frequency,
        "lambda_bar": report.failure_rate if report.failure_rate is not None else "",
    }
    if args.family == "ladder":
        p_val = float(fixed["p"])
        if 0 < p_val < 1 and float(fixed["rho"]) == 1.0:
            d_zeta, d_alpha = asymptotics.log_derivatives(p_val)
            row["dLnZeta"], row["dLnAlpha"] = d_zeta, d_alpha
        else:
            row["dLnZeta"] = row["dLnAlpha"] = ""
    return row


def cmd_sweep(args) -> int:
    try:
        values = _parse_range(args.range, integral=(args.param == "n"))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.param == "rho" and args.family != "ladder":
        print("error: rho only applies to the ladder family", file=sys.stderr)
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
    result = run_equivalence_trials(
        trials=args.trials,
        max_components=args.max_components,
        seed=args.seed,
        corrupt=args.corrupt,
    )
    if result.ok:
        print(f"verify: {result.trials} randomized instances, all exact matches")
        return EXIT_OK
    m = result.mismatches[0]
    print("verify: MISMATCH")
    print(f"  instance: {m.description}")
    print(f"  quantity: {m.quantity}")
    print(f"  transfer-matrix: {m.matrix_value}")
    print(f"  oracle:          {m.oracle_value}")
    return EXIT_MISMATCH


def make_parser() -> argparse.ArgumentParser:
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
    p_sweep.add_argument("--k", type=int, default=2)
    p_sweep.add_argument("--n", type=int, default=5)
    p_sweep.add_argument("--p", default="0.9")
    p_sweep.add_argument("--rho", default="1")
    p_sweep.add_argument("--lam", default="1")
    p_sweep.add_argument("--xi", default="0")
    p_sweep.add_argument("--terminal", choices=[TERMINAL_S, TERMINAL_T], default=TERMINAL_T)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="randomized oracle-equivalence check")
    p_verify.add_argument("--max-components", type=int, default=12)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
