"""CLI: config parsing, exit codes, JSON/CSV output."""

import csv
import io
import json
import math
import random
import runpy
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relfreq.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    ConfigError,
    build_from_config,
    main,
    make_parser,
)
import relfreq.cli
import relfreq.verify
from relfreq import asymptotics
from relfreq.asymptotics import asymptotic_rate
from relfreq.core import MultilinearPoly, ReliabilityError, TransferSystem, single_pass
from relfreq.kofn import build_kofn_g, build_lincon_f, identical_kofn_spec
from relfreq.oracle import StructureFunction, kofn_g_structure, lincon_f_structure, oracle_solve
from relfreq.scalars import parse_scalar
from relfreq.verify import run_equivalence_trials

from helpers import ROOT, corrupt_system, custom_config


def write_config(tmp_path, cfg, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def drop_lambdas(node):
    """A copy of a config with no "lambda" field, which steady-state-mu derives."""
    if isinstance(node, dict):
        return {key: drop_lambdas(value) for key, value in node.items() if key != "lambda"}
    if isinstance(node, list):
        return list(map(drop_lambdas, node))
    return node


KOFN_CFG = {
    "family": "kofn-g",
    "k": 2,
    "rate_convention": "explicit",
    "components": [
        {"id": "c1", "p": "9/10", "lambda": "1/9"},
        {"id": "c2", "p": "4/5", "lambda": "1/4"},
        {"id": "c3", "p": "3/4", "lambda": "1/3"},
    ],
}


class TestBuildFromConfig:
    def test_kofn_g(self):
        system = build_from_config(KOFN_CFG)
        report = single_pass(system)
        assert 0 < report.availability < 1
        assert report.frequency > 0

    def test_lincon_f(self):
        cfg = dict(KOFN_CFG, family="lincon-f")
        system = build_from_config(cfg)
        assert single_pass(system).availability > 0

    def test_steady_state_convention(self, tmp_path, capsys):
        cfg = {
            "family": "kofn-g",
            "k": 1,
            "rate_convention": "steady-state-mu",
            "components": [{"id": "c1", "p": "9/10"}],
        }
        report = single_pass(build_from_config(cfg))
        # lam p = mu q with mu = 1
        assert report.frequency == F(1, 10)
        assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["meta"]["rate_unit"] == "mu"

    def test_ladder_identical(self):
        cfg = {
            "family": "ladder",
            "p": "1/2",
            "rho": "9/10",
            "lambda": "1",
            "xi": "1/2",
            "n": 2,
            "terminal": "Tn",
        }
        report = single_pass(build_from_config(cfg))
        assert 0 < report.availability < 1

    def test_ladder_explicit_cells(self):
        cfg = {
            "family": "ladder",
            "terminal": "Sn",
            "cells": [
                {
                    "b": {"id": "b0", "p": "1/2", "lambda": "1"},
                    "S": {"id": "S0", "p": "1", "lambda": "0"},
                    "T": {"id": "T0", "p": "1", "lambda": "0"},
                },
                {
                    "a": {"id": "a1", "p": "2/3", "lambda": "1"},
                    "b": {"id": "b1", "p": "2/3", "lambda": "1"},
                    "c": {"id": "c1", "p": "2/3", "lambda": "1"},
                    "S": {"id": "S1", "p": "1", "lambda": "0"},
                    "T": {"id": "T1", "p": "1", "lambda": "0"},
                },
            ],
        }
        report = single_pass(build_from_config(cfg))
        assert 0 < report.availability < 1

    def test_custom_matrices(self):
        cfg = {
            "family": "custom-matrices",
            "components": [{"id": "x", "p": "3/4", "lambda": "2"}],
            "v_left": ["1"],
            "v_right": ["1"],
            "matrices": [[[[["1", ["x"]]]]]],
        }
        report = single_pass(build_from_config(cfg))
        assert report.availability == F(3, 4)
        assert report.frequency == F(3, 2)

    def test_custom_entry_sums_repeated_terms(self):
        cfg = {
            "family": "custom-matrices",
            "components": [{"id": "a", "p": "1/2"}, {"id": "b", "p": "1/3"}],
            "v_left": ["1"],
            "v_right": ["1"],
            "matrices": [[[[["1", ["a"]], ["2", ["a"]], ["1", ["b", "b"]]]]]],
        }
        (entry,), = tuple(build_from_config(cfg).pairs)[0].m
        assert entry.poly == MultilinearPoly({("a",): 3, ("b",): 1})

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            build_from_config({"family": "bridge"})

    PARSE_ONCE_CFGS = {
        "ladder": ({"family": "ladder", "terminal": "Sn", "cells": [
            {key: {"id": f"{key}{i}", "p": "9/10", "lambda": 0.5} for key in "abcST" if i or key in "bST"}
            for i in range(3)]}, {"9/10", "0.5"}),
        "identical-ladder": ({"family": "ladder", "p": "1", "lambda": "0", "n": 3}, {"1", "0"}),
        "custom": ({"family": "custom-matrices", "components": [{"id": "x", "p": "1", "lambda": "0"}],
                    "v_left": ["1"], "v_right": [1], "offset": "0",
                    "matrices": [[[[["1", ["x"]], [0]]]]] * 2}, {"1", "0"}),
    }

    @pytest.mark.parametrize("cfg, texts", PARSE_ONCE_CFGS.values(), ids=PARSE_ONCE_CFGS.keys())
    def test_each_distinct_text_is_parsed_once_per_call(self, monkeypatch, cfg, texts):
        parsed = []

        def parse(text):
            parsed.append(text)
            return parse_scalar(text)

        monkeypatch.setattr(relfreq.cli, "parse_scalar", parse)
        systems = []
        for _ in range(2):  # a second call shares nothing with the first
            parsed.clear()
            systems.append(build_from_config(cfg))
            assert sorted(parsed) == sorted(texts)
        assert systems[0] == systems[1]

    def test_a_json_number_and_its_texts_read_equal(self):
        cfg = {**KOFN_CFG, "components": [
            {"id": "c1", "p": 0.1, "lambda": "1/10"}, {"id": "c2", "p": "0.1", "lambda": 0.1},
            {"id": "c3", "p": "1/10", "lambda": "0.1"}]}
        comps = build_from_config(cfg).components
        assert len(comps) == 3 and {(c.p, c.lam) for c in comps} == {(F(1, 10), F(1, 10))}

    def test_a_repeated_bad_text_names_its_first_field_and_component(self):
        comps = [{"id": "c1", "p": "9/10", "lambda": "1/0"}, {"id": "c2", "p": "1/0", "lambda": "1/0"},
                 {"id": "c3", "p": "1/0"}]
        for first in ("components[0]: bad lambda for 'c1'", "components[1]: bad p for 'c2'"):
            with pytest.raises(ConfigError) as info:
                build_from_config({**KOFN_CFG, "components": comps})
            assert str(info.value) == f"{first}: cannot parse scalar '1/0': Fraction(1, 0)"
            comps[0]["lambda"] = "1/9"

    def test_missing_field(self):
        with pytest.raises(ConfigError):
            build_from_config({"family": "kofn-g", "components": KOFN_CFG["components"]})


class TestSolveCommand:
    def test_solve_json_output(self, tmp_path, capsys):
        path = write_config(tmp_path, KOFN_CFG)
        assert main(["solve", path]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"availability", "frequency", "meta"}
        assert payload["meta"]["mode"] == "exact"
        assert "rational" in payload["availability"]
        num, den = payload["availability"]["rational"].split("/")
        assert F(int(num), int(den)) == single_pass(
            build_from_config(KOFN_CFG)
        ).availability

    def test_solve_approx_mode(self, tmp_path, capsys):
        path = write_config(tmp_path, KOFN_CFG)
        assert main(["solve", path, "--mode", "approx"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["mode"] == "approx"
        assert "rational" not in payload["availability"]

    def test_approx_zero_frequency_reads_positive_zero(self, tmp_path, capsys):
        # a and b never fail and c has no failure rate, so nu = 0; k-of-n:G
        # reports nu as the projection by vL = (-1, 0), which is a zero too
        cfg = {"family": "kofn-g", "k": 2, "rate_convention": "explicit", "components": [
            {"id": "a", "p": "1"}, {"id": "b", "p": "1"}, {"id": "c", "p": "1/2", "lambda": "0"}]}
        path = write_config(tmp_path, cfg)
        assert main(["solve", path, "--mode", "approx"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["frequency"]["decimal"] == payload["failure_rate"]["decimal"] == "0.0"
        assert main(["solve", path]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["frequency"]["rational"] == payload["failure_rate"]["rational"] == "0"

    def test_solve_to_file(self, tmp_path):
        path = write_config(tmp_path, KOFN_CFG)
        out = tmp_path / "report.json"
        assert main(["solve", path, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["meta"]["family"]

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/cfg.json"]) == EXIT_PARSE
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "line" in err and "col" in err

    def test_missing_field_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"family": "kofn-g"})
        assert main(["solve", path]) == EXIT_PARSE
        assert "missing required field" in capsys.readouterr().err

    def test_invalid_probability_exit_code(self, tmp_path, capsys):
        cfg = dict(KOFN_CFG)
        cfg["components"] = [{"id": "c1", "p": "3/2", "lambda": "1"}]
        cfg["k"] = 1
        path = write_config(tmp_path, cfg)
        assert main(["solve", path]) == EXIT_VALIDATION

    def test_k_out_of_range_exit_code(self, tmp_path):
        cfg = dict(KOFN_CFG, k=7)
        path = write_config(tmp_path, cfg)
        assert main(["solve", path]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "matrix", [[[[], []], [[]]], [[[], []]], []], ids=["ragged", "1x2", "empty"]
    )
    def test_non_square_custom_matrix_exit_code(self, tmp_path, matrix):
        cfg = {
            "family": "custom-matrices",
            "components": [{"id": "x", "p": "3/4", "lambda": "2"}],
            "v_left": ["1", "0"],
            "v_right": ["1", "0"],
            "matrices": [matrix],
        }
        path = write_config(tmp_path, cfg)
        assert main(["solve", path]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "entry",
        [[[]], [["1", "ab"]], [["1", ["a"], []]], ["1"], [{"1": ["a"]}], [["one", ["a"]]]],
        ids=["empty-term", "string-ids", "three-items", "bare-coeff", "object", "bad-coeff"],
    )
    def test_malformed_custom_term_exit_code(self, tmp_path, capsys, entry):
        cfg = {
            "family": "custom-matrices",
            "components": [{"id": "a", "p": "1/2"}, {"id": "b", "p": "1/3"}],
            "v_left": ["1"],
            "v_right": ["1"],
            "matrices": [[[entry]]],
        }
        path = write_config(tmp_path, cfg)
        assert main(["solve", path]) == EXIT_PARSE
        assert "matrices" in capsys.readouterr().err

    def test_custom_matrix_unknown_id_exit_code(self, tmp_path, capsys):
        cfg = {
            "family": "custom-matrices",
            "components": [{"id": "x", "p": "3/4", "lambda": "2"}],
            "v_left": ["1"],
            "v_right": ["1"],
            "matrices": [[[[["1", ["x", "ghost"]]]]]],
        }
        path = write_config(tmp_path, cfg)
        assert main(["solve", path]) == EXIT_VALIDATION
        assert "ghost" in capsys.readouterr().err

    INTEGER_CFGS = {
        "kofn-g": KOFN_CFG,
        "ladder": {"family": "ladder", "p": "9/10", "lambda": "1", "n": 3},
        "custom-matrices": {
            "family": "custom-matrices",
            "components": [{"id": "x", "p": "3/4", "lambda": "2"}],
            "v_left": ["1"], "v_right": ["1"], "offset": "1",
            "matrices": [[[[["1", ["x"]]]]]],
        },
    }

    @pytest.mark.parametrize(
        "family, key, value",
        [("kofn-g", "k", 1.9), ("kofn-g", "k", True), ("kofn-g", "k", "abc"),
         ("kofn-g", "k", None), ("ladder", "n", 2.7), ("ladder", "n", "2.7"),
         ("custom-matrices", "sign", -1.0), ("custom-matrices", "sign", [1])],
    )
    def test_integer_field_rejects_non_integers(self, tmp_path, capsys, family, key, value):
        cfg = {**self.INTEGER_CFGS[family], key: value}
        assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_PARSE
        assert f"{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, key, value",
        [("kofn-g", "k", "2"), ("ladder", "n", " 3 "), ("custom-matrices", "sign", "-1")],
    )
    def test_integer_field_accepts_integer_strings(self, family, key, value):
        cfg = self.INTEGER_CFGS[family]
        assert build_from_config({**cfg, key: value}) == build_from_config({**cfg, key: int(value)})

    @pytest.mark.parametrize(
        "convention, field",
        [("explicit", "mu"), ("steady-state-mu", "mu"), ("explicit", "lambda")],
    )
    def test_unparseable_rate_exit_code(self, tmp_path, capsys, convention, field):
        cfg = dict(KOFN_CFG, rate_convention=convention, k=1)
        cfg["components"] = [{"id": "c1", "p": "9/10", field: "x"}]
        assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_PARSE
        assert "'c1'" in capsys.readouterr().err

    LADDER_CELLS = [
        {"b": {"id": "b0", "p": "9/10", "lambda": "1"},
         "S": {"id": "S0", "p": "1"}, "T": {"id": "T0", "p": "1"}},
        {"a": {"id": "b0", "p": "9/10", "lambda": "1"}, "b": {"id": "b1", "p": "9/10"},
         "c": {"id": "c1", "p": "9/10"}, "S": {"id": "S1", "p": "1"}, "T": {"id": "T1", "p": "1"}},
    ]

    def test_ladder_id_reused_with_equal_values_is_one_component(self):
        cfg = {"family": "ladder", "terminal": "Sn", "cells": self.LADDER_CELLS}
        system = build_from_config(cfg)
        ids = [c.id for c in system.components]
        assert ids.count("b0") == 1 and len(ids) == len(set(ids))

    def test_ladder_id_reused_with_another_value_exit_code(self, tmp_path, capsys):
        cells = json.loads(json.dumps(self.LADDER_CELLS))
        cells[1]["a"]["p"] = "0.5"
        cfg = {"family": "ladder", "terminal": "Sn", "cells": cells}
        assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_VALIDATION
        assert "'b0'" in capsys.readouterr().err

    def test_custom_id_listed_twice_with_another_value_exit_code(self, tmp_path, capsys):
        cfg = {
            "family": "custom-matrices",
            "components": [{"id": "x", "p": "3/4", "lambda": "2"},
                           {"id": "x", "p": "1/4", "lambda": "2"}],
            "v_left": ["1"],
            "v_right": ["1"],
            "matrices": [[[[["1", ["x"]]]]]],
        }
        assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_VALIDATION
        assert "'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg", [
        KOFN_CFG,
        {**KOFN_CFG, "family": "lincon-f"},
        {"family": "ladder", "terminal": "Sn", "cells": LADDER_CELLS},
        {"family": "custom-matrices", "components": [{"id": "x", "p": "3/4"}],
         "v_left": ["1"], "v_right": ["1"], "matrices": [[[[["1", ["x"]]]]]]},
    ], ids=["kofn-g", "lincon-f", "ladder-cells", "custom-matrices"])
    @pytest.mark.parametrize("convention, unit", [("explicit", "absolute"), ("steady-state-mu", "mu")])
    def test_every_family_is_labelled_with_its_rate_unit(self, tmp_path, capsys, cfg, convention, unit):
        cfg = {**(drop_lambdas(cfg) if convention == "steady-state-mu" else cfg),
               "rate_convention": convention}
        for mode in ("exact", "approx"):
            assert main(["solve", write_config(tmp_path, cfg), "--mode", mode]) == EXIT_OK
            report = json.loads(capsys.readouterr().out)
            assert report["meta"]["rate_unit"] == report["frequency"]["per"] == unit
            assert report["availability"]["per"] == "absolute"

    def test_numeric_ids_name_the_same_components_as_their_strings(self, tmp_path, capsys):
        def config(five, seven):
            return {
                "family": "custom-matrices",
                "components": [{"id": five, "p": "3/4", "lambda": "2"},
                               {"id": seven, "p": "1/2", "lambda": "1/3"}],
                "v_left": ["1"],
                "v_right": ["1"],
                "matrices": [[[[["1", [five]], ["-1/2", [five, seven]]]]], [[[["1", [seven]]]]]],
            }

        outputs = []
        for cfg in (config(5, 7), config("5", "7"), config(5, "7")):
            assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])["availability"]["rational"] == "9/32"

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out"
        assert main(["solve", write_config(tmp_path, KOFN_CFG), "--out", str(out)]) == EXIT_PARSE
        assert f"cannot write {out}" in capsys.readouterr().err
        assert not out.exists()


CUSTOM_1X1 = {
    "family": "custom-matrices",
    "components": [{"id": "x", "p": "3/4", "lambda": "2"}],
    "v_left": ["1"],
    "v_right": ["1"],
    "matrices": [[[[["1", ["x"]]]]]],
}
LADDER_IDENTICAL = {"family": "ladder", "p": "9/10", "lambda": "1", "n": 3}

MALFORMED = {
    **{f"sweep-{family}-{flag[2:]}": (
        ["sweep", "--family", family, "--param", "n", "--range", "1:2:1", flag, value], flag)
       for family in ("kofn-g", "lincon-f", "ladder")
       for flag, value in (("--lam", "abc"), ("--p", "0.x"))},
    "sweep-ladder-rho": (["sweep", "--family", "ladder", "--param", "n", "--range", "1:2:1",
                          "--rho", "one"], "--rho"),
    "sweep-ladder-xi": (["sweep", "--family", "ladder", "--param", "p", "--range", "0.5:0.6:0.1",
                         "--xi", "1/0"], "--xi"),
    "cells-entry": ({"family": "ladder", "cells": [5]}, "cells[0]"),
    "cells": ({"family": "ladder", "cells": 5}, "cells"),
    "matrices-entry": ({**CUSTOM_1X1, "matrices": [5]}, "matrices[0]"),
    "matrices-row": ({**CUSTOM_1X1, "matrices": [[5]]}, "matrices[0]"),
    "matrices": ({**CUSTOM_1X1, "matrices": 5}, "matrices"),
    "v_left": ({**CUSTOM_1X1, "v_left": "1"}, "v_left"),
    "v_right": ({**CUSTOM_1X1, "v_right": 5}, "v_right"),
    "v_left-entry": ({**CUSTOM_1X1, "v_left": ["abc"]}, "v_left[0]"),
    "v_right-entry": ({**CUSTOM_1X1, "v_right": ["1/0"]}, "v_right[0]"),
    "offset": ({**CUSTOM_1X1, "offset": "one"}, "offset"),
    **{f"ladder-{key}": ({**LADDER_IDENTICAL, key: "abc"}, f"bad {key}")
       for key in ("p", "rho", "lambda", "xi")},
    "custom-components": ({**CUSTOM_1X1, "components": 5}, "components"),
    "kofn-components": ({**KOFN_CFG, "components": {"id": "c1", "p": "1/2"}}, "components"),
    "lincon-components": ({**KOFN_CFG, "family": "lincon-f", "components": "c1"}, "components"),
    "ladder-rate_convention": (
        {**LADDER_IDENTICAL, "rate_convention": "steady-state-mu"}, "rate_convention"),
    "component-id": ({**CUSTOM_1X1, "components": [{"id": ["x"], "p": "3/4"}]},
                     "components[0]: id must be"),
    "steady-state-mu-lambda": (
        {"family": "kofn-g", "k": 1, "rate_convention": "steady-state-mu",
         "components": [{"id": "c1", "p": "9/10", "lambda": "5"}]},
        "components[0]: rate_convention 'steady-state-mu' derives lambda of 'c1'"),
    "explicit-mu": (
        {"family": "kofn-g", "k": 1, "rate_convention": "explicit",
         "components": [{"id": "c1", "p": "9/10", "mu": "7"}]},
        "components[0]: mu of 'c1' needs rate_convention 'steady-state-mu'"),
    "term-id": ({**CUSTOM_1X1, "matrices": [[[[["1", [["x"]]]]]]]},
                "matrices[0]: id in term ['1', [['x']]] must be"),
}


@pytest.mark.parametrize("command, field", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exits_2_and_names_the_field(tmp_path, capsys, command, field):
    if isinstance(command, dict):
        command = ["solve", write_config(tmp_path, command)]
    assert main(command) == EXIT_PARSE
    assert field in capsys.readouterr().err


def test_empty_kofn_component_list_exit_code(tmp_path, capsys):
    assert main(["solve", write_config(tmp_path, {**KOFN_CFG, "components": []})]) == EXIT_VALIDATION
    assert "at least one component" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["kofn-g", "lincon-f"])
def test_config_repeating_an_id_exits_3(tmp_path, capsys, family):
    cfg = {**KOFN_CFG, "family": family, "components": KOFN_CFG["components"][:1] * 2}
    assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_VALIDATION
    assert "component ids must be distinct" in capsys.readouterr().err


class TestRateBeyondTheDoubleRange:
    CFG = {"family": "kofn-g", "k": 1,
           "components": [{"id": "big", "p": "1/2", "lambda": "1e400"}]}

    def test_approx_solve_exits_3_naming_the_component(self, tmp_path, capsys):
        assert main(["solve", write_config(tmp_path, self.CFG), "--mode", "approx"]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: component 'big': failure rate beyond the double range; exact mode accepts it\n"

    def test_exact_solve_reads_an_infinite_decimal(self, tmp_path, capsys):
        # nu = lam p = 5 * 10**399 and nu/A = lam
        assert main(["solve", write_config(tmp_path, self.CFG)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["frequency"] == {"decimal": "inf", "rational": "5" + "0" * 399, "per": "absolute"}
        assert report["failure_rate"] == {"decimal": "inf", "rational": "1" + "0" * 400, "per": "absolute"}
        assert report["log10_frequency"] == pytest.approx(399 + math.log10(5))
        assert report["availability"]["decimal"] == "0.5"

    @pytest.mark.parametrize("family", ["kofn-g", "lincon-f", "ladder"])
    def test_sweep_exits_3_naming_the_component(self, capsys, family):
        code = main(["sweep", "--family", family, "--param", "p", "--range", "0.5:0.9:0.4",
                     "--lam", "1e400"])
        assert code == EXIT_VALIDATION
        assert "failure rate beyond the double range" in capsys.readouterr().err


class TestCustomScalarBeyondTheDoubleRange:
    """A custom-matrices value above the double range: exact mode reads it,
    and rejects the A it gives; approx mode names it.  Both exit 3."""

    CASES = {  # A = 3/4 times, or plus, 10**400
        "coefficient": ({"matrices": [[[[["1e400", ["x"]]]]]]},
                        "matrix entry (0, 0): coefficient", str(F(3, 4) * 10**400)),
        "v_right": ({"v_right": ["1e400"]}, "v_right[0]", str(F(3, 4) * 10**400)),
        "v_left": ({"v_left": ["1e400"]}, "v_left[0]", str(F(3, 4) * 10**400)),
        "offset": ({"offset": "1e400"}, "offset", str(F(3, 4) + 10**400)),
    }

    @pytest.mark.parametrize("change, name, availability", CASES.values(), ids=CASES.keys())
    def test_solve_exits_3_in_both_modes(self, tmp_path, capsys, change, name, availability):
        path = write_config(tmp_path, {**CUSTOM_1X1, **change})
        assert main(["solve", path]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: availability A = {availability} outside [0, 1]\n")
        assert main(["solve", path, "--mode", "approx"]) == EXIT_VALIDATION
        assert capsys.readouterr() == (
            "", f"error: {name} beyond the double range; exact mode accepts it\n")


class TestProductBeyondTheDoubleRange:
    """In-range custom-matrices values whose product leaves the double
    range: approx mode names the quantity that overflows and exits 3."""

    @pytest.mark.parametrize("coefficients, offset, availability", [
        (("1e200", "1e200"), "0", 25 * 10**398),  # A = (1e200 / 2)^2
        (("1e308", "5"), "1e308", 225 * 10**306),  # A = 1e308 + 1e308 * 5/4: only the sum overflows
    ], ids=["product", "offset-plus-product"])
    def test_availability(self, tmp_path, capsys, coefficients, offset, availability):
        path = write_config(tmp_path, {
            **CUSTOM_1X1, "offset": offset,
            "matrices": [[[[[c, ["x"]]]]] for c in coefficients],
            "components": [{"id": "x", "p": "1/2", "lambda": "1/4"}]})
        assert main(["solve", path]) == EXIT_VALIDATION
        assert capsys.readouterr() == (
            "", f"error: availability A = {availability} outside [0, 1]\n")
        assert main(["solve", path, "--mode", "approx"]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", "error: availability A beyond the double range\n")

    def test_frequency_alone(self, tmp_path, capsys):
        # A = (2 * 1/2)^2 = 1 fits, nu = 2e308 does not
        matrix = [[[["2", ["x"]]]]]
        path = write_config(tmp_path, {**CUSTOM_1X1, "matrices": [matrix, matrix],
                                       "components": [{"id": "x", "p": "1/2", "lambda": "1e308"}]})
        assert main(["solve", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["availability"]["rational"] == "1"
        assert report["frequency"]["rational"] == str(2 * 10**308)
        assert report["frequency"]["decimal"] == "inf"
        assert main(["solve", path, "--mode", "approx"]) == EXIT_VALIDATION
        assert capsys.readouterr() == (
            "", "error: failure frequency nu beyond the double range; exact mode accepts it\n")

    @pytest.mark.parametrize("change, frequency, message", [
        ({"components": [{"id": cid, "p": "1/2", "lambda": "1e308"} for cid in "wxyz"],
          "matrices": [[[[["1", ["x", "y"]], ["-1/2", ["z", "w"]]]]]]},
         "2.5e+307", "failure frequency nu beyond the double range; exact mode accepts it"),
        ({"components": [{"id": cid, "p": "9/10", "lambda": "1"} for cid in "xy"],
          "v_left": ["1", "1"], "v_right": ["1", "0"],
          "matrices": [[[[["1e308", ["x"]], ["1e308", ["y"]]], []],
                        [[["-1e308", ["x"]], ["-1e308", ["y"]]], []]]]},
         "0.0", "availability A is not a number: an intermediate value overflowed; exact mode accepts it"),
    ], ids=["frequency", "availability"])
    def test_inf_minus_inf_exits_3(self, tmp_path, capsys, change, frequency, message):
        # values that overflow twice to an inf - inf in approx mode, whose
        # exact nu = 2.5e307 and A = 0 fit
        path = write_config(tmp_path, {**CUSTOM_1X1, **change})
        assert main(["solve", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["frequency"]["decimal"] == frequency
        if "v_left" in change:
            assert report["availability"]["rational"] == "0"
        assert main(["solve", path, "--mode", "approx"]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "name, code, availability",
    [("custom_scalar_forms", EXIT_VALIDATION, "24663/6400"),
     ("custom_offset_sign", EXIT_OK, "749/800")],
)
def test_exact_solve_rejects_availability_outside_unit_interval(
    tmp_path, capsys, name, code, availability
):
    # custom matrices can describe no availability; an exact A outside [0, 1]
    # shows it, while a negative frequency alone (custom_offset_sign) does not
    digest = runpy.run_path(str(ROOT / "scripts" / "output_digest.py"))
    path = write_config(tmp_path, digest[name]())
    assert main(["solve", path]) == code
    out, err = capsys.readouterr()
    if code == EXIT_OK:
        report = json.loads(out)
        assert report["availability"]["rational"] == availability
        assert report["frequency"]["rational"] == "-9/80"
    else:
        assert out == "" and f"availability A = {availability} outside [0, 1]" in err
    # approx mode is unchecked: there a valid A can exceed 1 by rounding
    assert main(["solve", path, "--mode", "approx"]) == EXIT_OK


def signed_config():
    """custom_offset_sign of ``scripts/output_digest.py``, whose "sign" is
    -1, with both entries of its v_left nonzero."""
    digest = runpy.run_path(str(ROOT / "scripts" / "output_digest.py"))
    return {**digest["custom_offset_sign"](), "v_left": ["3/4", "1/4"]}


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_config_sign_is_a_negated_v_left(tmp_path, capsys, mode):
    signed = signed_config()
    negated = {key: value for key, value in signed.items() if key != "sign"}
    negated["v_left"] = ["-3/4", "-1/4"]
    outputs = []
    for cfg in (signed, negated):
        outputs.append((main(["solve", write_config(tmp_path, cfg), "--mode", mode]), capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == EXIT_OK and json.loads(outputs[0][1].out)["availability"]["decimal"] == "0.88"


@pytest.mark.parametrize("sign", [0, 2, -2])
def test_a_config_sign_other_than_plus_or_minus_one_exits_3(tmp_path, capsys, sign):
    cfg = {**signed_config(), "sign": sign}
    assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_VALIDATION
    assert capsys.readouterr() == ("", "error: invalid system description: sign must be +1 or -1\n")


class TestSweepCommand:
    def read_rows(self, capsys):
        return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))

    def test_sweep_p_kofn(self, capsys):
        code = main(
            ["sweep", "--family", "kofn-g", "--param", "p",
             "--range", "0.1:0.9:0.2", "--k", "2", "--n", "4"]
        )
        assert code == EXIT_OK
        rows = self.read_rows(capsys)
        assert len(rows) == 5
        assert rows[0].keys() >= {"p", "A", "nu_bar", "lambda_bar"}
        avails = [float(r["A"]) for r in rows]
        assert avails == sorted(avails)  # monotone in p

    @pytest.mark.parametrize("family", ["kofn-g", "lincon-f"])
    def test_sweep_p_up_to_one(self, capsys, family):
        # a perfect component gets rate 0, as the ladder's identical spec does
        code = main(
            ["sweep", "--family", family, "--param", "p",
             "--range", "0.5:1:0.25", "--k", "2", "--n", "4"]
        )
        assert code == EXIT_OK
        rows = self.read_rows(capsys)
        assert [r["p"] for r in rows] == ["0.5", "0.75", "1.0"]
        assert float(rows[-1]["A"]) == 1.0 and float(rows[-1]["nu_bar"]) == 0.0

    @pytest.mark.parametrize("family", ["kofn-g", "lincon-f"])
    def test_each_row_is_one_run_of_one_pair(self, capsys, monkeypatch, family):
        systems = []

        def spy(system, **kwargs):
            systems.append(system)
            return single_pass(system, **kwargs)

        monkeypatch.setattr(relfreq.cli, "single_pass", spy)
        code = main(["sweep", "--family", family, "--param", "n", "--range", "3:9:3", "--k", "3"])
        assert code == EXIT_OK and len(self.read_rows(capsys)) == 3
        assert [system.pairs.length for system in systems] == [3, 6, 9]
        assert [len(system.pairs.runs) for system in systems] == [1, 1, 1]

    def test_sweep_n_ladder_with_derivative_columns(self, capsys):
        code = main(
            ["sweep", "--family", "ladder", "--param", "n",
             "--range", "1:5:1", "--p", "0.9", "--lam", "1"]
        )
        assert code == EXIT_OK
        rows = self.read_rows(capsys)
        assert len(rows) == 5
        assert "dLnZeta" in rows[0] and "dLnAlpha" in rows[0]
        assert float(rows[0]["dLnZeta"]) > 0

    def test_sweep_ladder_with_fallible_nodes_leaves_derivatives_empty(self, capsys):
        # the log-derivative formulas hold for perfect nodes (rho = 1) only
        code = main(
            ["sweep", "--family", "ladder", "--param", "p",
             "--range", "0.5:0.9:0.2", "--rho", "0.9"]
        )
        assert code == EXIT_OK
        rows = self.read_rows(capsys)
        assert len(rows) == 3 and all(float(r["A"]) > 0 for r in rows)
        assert all(r["dLnZeta"] == r["dLnAlpha"] == "" for r in rows)

    def test_sweep_p_ladder_of_10_to_the_12_cells(self, capsys):
        # the shared-cell chain is held as runs, so no 10**12-long tuple is built
        n = 10**12
        code = main(
            ["sweep", "--family", "ladder", "--param", "p",
             "--range", "0.8:0.9:0.1", "--n", str(n), "--lam", "1"]
        )
        assert code == EXIT_OK
        rows = self.read_rows(capsys)
        assert len(rows) == 2
        for row in rows:
            expected = asymptotic_rate(float(row["p"]), n, 1.0)
            assert float(row["lambda_bar"]) == pytest.approx(expected, rel=1e-6)

    def test_sweep_to_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--family", "lincon-f", "--param", "n",
             "--range", "2:6:2", "--k", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out"
        code = main(
            ["sweep", "--family", "lincon-f", "--param", "n",
             "--range", "2:6:2", "--k", "2", "--out", str(out)]
        )
        assert code == EXIT_PARSE
        assert f"cannot write {out}" in capsys.readouterr().err

    def test_p_range_does_not_drift(self, capsys):
        code = main(
            ["sweep", "--family", "kofn-g", "--param", "p",
             "--range", "0.05:0.95:0.05", "--k", "2", "--n", "4"]
        )
        assert code == EXIT_OK
        assert [r["p"] for r in self.read_rows(capsys)] == [str(i / 20) for i in range(1, 20)]

    def test_bad_range(self, capsys):
        code = main(
            ["sweep", "--family", "kofn-g", "--param", "p", "--range", "0.9:0.1:0.1"]
        )
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("span, reason", [
        ("1/0:1:1", ", expected a:b:step"),
        ("a:b", ", expected a:b:step"),
        ("0.1:0.5", ", expected a:b:step"),
        ("0.1:0.5:0", ": need step > 0 and b >= a"),
        ("0.5:0.1:0.1", ": need step > 0 and b >= a"),
    ])
    def test_bad_range_message(self, capsys, span, reason):
        code = main(["sweep", "--family", "kofn-g", "--param", "p", "--range", span])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == f"error: bad range {span!r}{reason}\n"

    def test_range_reads_every_scalar_form(self, capsys):
        code = main(
            ["sweep", "--family", "kofn-g", "--param", "p",
             "--range", " 1/4:+0.5:2.5e-1", "--k", "2", "--n", "4"]
        )
        assert code == EXIT_OK
        assert [r["p"] for r in self.read_rows(capsys)] == ["0.25", "0.5"]

    def test_rho_requires_ladder(self, capsys):
        code = main(
            ["sweep", "--family", "kofn-g", "--param", "rho", "--range", "0.1:0.9:0.4"]
        )
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("family, option, value, families", [
        ("ladder", "--k", "3", "kofn-g and lincon-f"),
        ("kofn-g", "--rho", "0.5", "the ladder family"),
        ("lincon-f", "--xi", "3", "the ladder family"),
        ("kofn-g", "--terminal", "Sn", "the ladder family"),
    ])
    def test_an_option_that_changes_nothing_for_the_family_exits_2(
            self, capsys, family, option, value, families):
        code = main(["sweep", "--family", family, "--param", "p", "--range", "0.5:0.6:0.1", option, value])
        assert code == EXIT_PARSE
        assert capsys.readouterr() == ("", f"error: {option} only applies to {families}\n")


class TestParser:
    def test_built_once_per_process(self):
        assert make_parser() is make_parser()

    def test_a_bad_call_leaves_the_parser_as_it_was(self, capsys):
        argv = ["sweep", "--family", "kofn-g", "--param", "p", "--range", "0.5:0.9:0.4", "--k", "2", "--n", "4"]
        with pytest.raises(SystemExit) as exc:
            main(argv[:-4] + ["--k", "two", "--terminal", "Xn"])
        assert exc.value.code == EXIT_PARSE and "--k: invalid int value: 'two'" in capsys.readouterr().err
        assert main(argv) == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        expected = [single_pass(build_kofn_g(identical_kofn_spec(2, 4, p, F(1))), mode="approx").availability
                    for p in (F(1, 2), F(9, 10))]
        assert [(r["p"], float(r["A"])) for r in rows] == [("0.5", expected[0]), ("0.9", expected[1])]


class TestVerifyCommand:
    def test_small_clean_run(self, capsys):
        code = main(["verify", "--trials", "12", "--max-components", "6", "--seed", "3"])
        assert code == EXIT_OK
        assert "all exact matches" in capsys.readouterr().out

    def test_corrupt_run_detected(self, capsys, monkeypatch):
        def corrupt_pass(system):
            return single_pass(corrupt_system(system))

        monkeypatch.setattr(relfreq.verify, "single_pass", corrupt_pass)
        code = main(["verify", "--trials", "6", "--max-components", "6"])
        assert code == EXIT_MISMATCH
        assert "MISMATCH" in capsys.readouterr().out

    def test_component_cap(self, capsys):
        code = main(["verify", "--trials", "1", "--max-components", "99"])
        assert code == EXIT_PARSE

    def test_no_components(self, capsys):
        code = main(["verify", "--trials", "1", "--max-components", "0"])
        assert code == EXIT_PARSE
        assert "max_components=0" in capsys.readouterr().err

    def test_no_trials(self, capsys):
        code = main(["verify", "--trials", "-5"])
        assert code == EXIT_PARSE
        assert "trials=-5" in capsys.readouterr().err

    def test_a_frequency_mismatch_is_named(self, monkeypatch):
        def off_by_one(sf, probs, rates):
            a, nu = oracle_solve(sf, probs, rates)
            return a, nu + 1

        monkeypatch.setattr(relfreq.verify, "oracle_solve", off_by_one)
        mismatch = run_equivalence_trials(trials=1, max_components=4)
        assert mismatch.quantity == "frequency"
        assert mismatch.oracle_value == mismatch.matrix_value + 1

    def test_no_ladder_below_four_components(self, monkeypatch):
        systems = []

        def recording_pass(system):
            systems.append(system)
            return single_pass(system)

        monkeypatch.setattr(relfreq.verify, "single_pass", recording_pass)
        assert run_equivalence_trials(trials=6, max_components=3) is None
        assert len(systems) == 6
        for system in systems:
            assert sum(0 < c.p < 1 for c in system.components) <= 3, system.family

    def test_max_components_above_twelve_draws_larger_systems(self, monkeypatch):
        sizes = []

        def recording_pass(system):
            sizes.append(sum(0 < c.p < 1 for c in system.components))
            return single_pass(system)

        monkeypatch.setattr(relfreq.verify, "single_pass", recording_pass)
        assert run_equivalence_trials(trials=24, max_components=16, seed=5) is None
        assert len(sizes) == 24 and 12 < max(sizes) <= 16

    def test_max_components_above_twelve_draws_longer_ladders(self):
        # n cells with perfect nodes hold 3n + 1 free components, so 24 admits 7 cells
        rng = random.Random(5)
        sizes = [sum(0 < c.p < 1 for c in relfreq.verify._random_ladder(rng, 24)[0].components)
                 for _ in range(40)]
        assert 10 < max(sizes) <= 24

    def test_one_enumeration_per_trial(self, monkeypatch):
        drawn, systems, calls = [], [], []

        def counting(make):
            def wrapped(*args):
                sf = make(*args)
                drawn.append(sf)

                def fn(cols, full):
                    calls.append(full)
                    return sf.fn(cols, full)

                return StructureFunction(sf.ids, fn)

            return wrapped

        for name in ("kofn_g_structure", "lincon_f_structure", "ladder_structure"):
            monkeypatch.setattr(relfreq.verify, name, counting(getattr(relfreq.verify, name)))

        def recording_pass(system):
            systems.append(system)
            return single_pass(system)

        monkeypatch.setattr(relfreq.verify, "single_pass", recording_pass)
        assert run_equivalence_trials(trials=30, max_components=10, seed=3) is None
        assert len(drawn) == len(systems) == 30
        # one call per trial, its ``full`` one bit for each state of the free ids
        assert len(calls) == 30
        for sf, system, full in zip(drawn, systems, calls):
            probs = {c.id: c.p for c in system.components}
            assert full == (1 << 2 ** sum(0 < probs[cid] < 1 for cid in sf.ids)) - 1


def verify_drawn_systems(seed, count):
    """``count`` systems of each family, drawn as ``verify`` draws them from
    ``Random(seed)``: (system, structure function, description)."""
    rng = random.Random(seed)
    makers = [
        lambda: relfreq.verify._random_kofn(rng, 12, build_kofn_g, kofn_g_structure, "G"),
        lambda: relfreq.verify._random_kofn(rng, 12, build_lincon_f, lincon_f_structure, "LinConF"),
        lambda: relfreq.verify._random_ladder(rng, 12),
    ]
    return [make() for _ in range(count) for make in makers]


class TestCustomMatricesAgainstTheOracle:
    """A custom-matrices config that writes out a built system, slot
    polynomials, vectors and offset, reads back through
    ``build_from_config`` to the same exact report, which the oracle
    confirms: the config's parsing checked end to end."""

    DRAWN = verify_drawn_systems(28, 20)

    def test_draws_cover_every_family_and_both_ladder_terminals(self):
        descriptions = [desc for _, _, desc in self.DRAWN]
        assert {desc.split()[0] for desc in descriptions} == {"G", "LinConF", "ladder"}
        assert all(any(f"terminal={t}" in desc for desc in descriptions) for t in ("Sn", "Tn"))
        # the k-of-n:G systems are offset 1 with vL led by -1; the others 0 and +1
        leads = {(system.offset, next(filter(None, system.v_left))) for system, _, _ in self.DRAWN}
        assert leads == {(1, -1), (0, 1)}

    @pytest.mark.parametrize("index", range(len(DRAWN)))
    def test_custom_config_equals_the_built_system_and_the_oracle(self, index):
        system, sf, desc = self.DRAWN[index]
        custom = build_from_config(json.loads(json.dumps(custom_config(system))))
        assert custom.family == "custom-matrices" and custom.size == system.size
        report, built = single_pass(custom), single_pass(system)
        fields = ("availability", "unavailability", "frequency", "failure_rate",
                  "log10_availability", "log10_frequency")
        assert [getattr(report, f) for f in fields] == [getattr(built, f) for f in fields], desc
        probs = {c.id: c.p for c in system.components}
        rates = {c.id: c.lam for c in system.components}
        assert (report.availability, report.frequency) == oracle_solve(sf, probs, rates), desc


@pytest.mark.parametrize("text", ["5", "[1, 2]", '"kofn-g"', "null"])
def test_a_config_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    path = tmp_path / "system.json"
    path.write_text(text)
    assert main(["solve", str(path)]) == EXIT_PARSE
    assert capsys.readouterr() == ("", "error: config must be a JSON object\n")


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_a_custom_system_with_no_states_exits_3(tmp_path, capsys, mode):
    cfg = {"family": "custom-matrices", "components": [], "v_left": [], "v_right": [],
           "matrices": [], "offset": "1", "sign": -1}
    assert main(["solve", write_config(tmp_path, cfg), "--mode", mode]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and "at least one state" in err


# Values that a config field may hold in place of a valid one: JSON types
# of every kind, texts that do not parse or do not read as a finite number,
# and counts past sys.maxsize.
FUZZ_VALUES = [None, True, 2.5, "x", "1/0", "nan", [], {}, 10**30, "1e400", -1, "", "-1/2"]
FUZZ_P = st.sampled_from(["9/10", "0.5", "3/4", 0.25, "99/100"])
FUZZ_RATE = st.sampled_from(["0", "1", "1/3", "2.5", 2])


@st.composite
def valid_configs(draw):
    """A valid config of one family: kofn-g, lincon-f under steady-state-mu,
    a ladder given cell by cell, an identical ladder or custom matrices."""
    kind = draw(st.sampled_from(["kofn-g", "lincon-f", "cells", "identical", "custom"]))

    def component(cid, rate="lambda"):
        return {"id": cid, "p": draw(FUZZ_P), rate: draw(FUZZ_RATE)}

    terminal = draw(st.sampled_from(["Sn", "Tn"]))
    if kind == "kofn-g":
        n = draw(st.integers(1, 4))
        return {"family": "kofn-g", "k": draw(st.integers(1, n)),
                "components": [component(f"c{i}") for i in range(n)]}
    if kind == "lincon-f":
        n = draw(st.integers(1, 4))
        return {"family": "lincon-f", "k": draw(st.integers(1, n)), "rate_convention": "steady-state-mu",
                "components": [component(f"c{i}", "mu") for i in range(n)]}
    if kind == "cells":
        cells = [{key: component(f"{key}{i}") for key in ("bST" if i == 0 else "abcST")}
                 for i in range(draw(st.integers(1, 3)))]
        return {"family": "ladder", "terminal": terminal, "cells": cells}
    if kind == "identical":
        return {"family": "ladder", "p": draw(FUZZ_P), "rho": draw(FUZZ_P), "lambda": draw(FUZZ_RATE),
                "xi": draw(FUZZ_RATE), "n": draw(st.integers(0, 5)), "terminal": terminal}
    dim = draw(st.integers(1, 2))
    ids = ["x", "y"]
    term = st.one_of(st.tuples(FUZZ_P).map(list),
                     st.tuples(FUZZ_P, st.lists(st.sampled_from(ids), max_size=2)).map(list))
    matrix = st.lists(st.lists(st.lists(term, max_size=2), min_size=dim, max_size=dim),
                      min_size=dim, max_size=dim)
    return {"family": "custom-matrices", "components": [component(cid) for cid in ids],
            "matrices": draw(st.lists(matrix, min_size=1, max_size=2)),
            "v_left": ["1"] * dim, "v_right": [draw(FUZZ_P)] * dim, "offset": "0"}


def field_paths(node, path=()):
    """The path of keys and indices to every value below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


@st.composite
def mutated_configs(draw):
    """(a valid config, a copy with one or two fields replaced by values of
    FUZZ_VALUES), the deeper field first, so each path still leads to its
    field when it is replaced."""
    base = draw(valid_configs())
    paths = draw(st.lists(st.sampled_from(list(field_paths(base))), min_size=1, max_size=2, unique=True))
    cfg = json.loads(json.dumps(base))
    for path in sorted(paths, key=len, reverse=True):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(st.sampled_from(FUZZ_VALUES))
    return base, cfg


IDENTICAL_LADDER = {"family": "ladder", "p": "0.9", "rho": "1", "lambda": "1", "xi": "0", "n": 5}


@given(mutated_configs())
@example((IDENTICAL_LADDER, dict(IDENTICAL_LADDER, n=10**30)))
@settings(max_examples=300, deadline=None)
def test_config_reading_raises_only_its_own_errors(configs):
    # build only: an exact solve of a mutated chain of 10**30 cells would not finish
    base, cfg = configs
    assert isinstance(build_from_config(base), TransferSystem)
    try:
        system = build_from_config(cfg)
    except (ConfigError, ReliabilityError):
        return
    assert isinstance(system, TransferSystem)


class TestChainsPastSysMaxsize:
    """A chain of 2**63 or more references is read by its runs, never by
    ``len()``, which stops at sys.maxsize; approx mode only, since an exact
    pass at such n is infeasible."""

    def test_ladder_sweep_of_10_to_the_19_cells(self, capsys):
        n = 10**19
        code = main(["sweep", "--family", "ladder", "--param", "p", "--range", "0.85:0.9:0.05", "--n", str(n)])
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [float(row["log10_A"]) for row in rows] == [-1.234481333860177e17, -5.141136236905185e16]
        for row in rows:
            p = float(row["p"])
            _, zeta, _ = asymptotics.eigenvalues(p)
            expected = n * math.log10(zeta) + math.log10(asymptotics.dominant_amplitude(p))
            assert float(row["log10_A"]) == pytest.approx(expected, rel=1e-14)
            d_zeta, _ = asymptotics.log_derivatives(p)
            assert float(row["lambda_bar"]) == pytest.approx(n * d_zeta, rel=1e-14)

    def test_approx_solve_of_an_identical_ladder_of_10_to_the_19_cells(self, tmp_path, capsys):
        cfg = dict(IDENTICAL_LADDER, n=10**19)
        assert main(["solve", "--mode", "approx", write_config(tmp_path, cfg)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["log10_availability"] == -5.141136236905185e16
        assert report["meta"]["size"] == 10**19 + 1

    def test_kofn_sweep_of_10_to_the_20_components(self, capsys):
        code = main(["sweep", "--family", "kofn-g", "--param", "p", "--range", "0.85:0.9:0.05",
                     "--n", str(10**20)])
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["A"] for row in rows] == ["1.0", "1.0"]
