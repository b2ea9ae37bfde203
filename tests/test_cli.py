"""CLI: config parsing, exit codes, JSON/CSV output."""

import csv
import io
import json
from fractions import Fraction as F

import pytest

from relfreq.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    ConfigError,
    build_from_config,
    main,
)
import relfreq.verify
from relfreq.asymptotics import asymptotic_rate
from relfreq.core import MultilinearPoly, single_pass
from relfreq.oracle import StructureFunction
from relfreq.verify import run_equivalence_trials


def write_config(tmp_path, cfg, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


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

    def test_steady_state_convention(self):
        cfg = {
            "family": "kofn-g",
            "k": 1,
            "rate_convention": "steady-state-mu",
            "components": [{"id": "c1", "p": "9/10"}],
        }
        report = single_pass(build_from_config(cfg))
        # lam p = mu q with mu = 1
        assert report.frequency == F(1, 10)
        assert report.rate_unit == "mu"

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
        (entry,), = build_from_config(cfg).pairs[0].m
        assert entry.poly == MultilinearPoly({("a",): 3, ("b",): 1})

    def test_builders_do_no_polynomial_arithmetic(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("polynomial arithmetic while building")

        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                     "__mul__", "__rmul__"):
            monkeypatch.setattr(MultilinearPoly, name, refuse)
        custom = {
            "family": "custom-matrices",
            "components": [{"id": "x", "p": "3/4"}, {"id": "y", "p": "1/2"}],
            "v_left": ["1", "0"],
            "v_right": ["1", "1"],
            "matrices": [[[[["1", ["x"]], ["-1", ["x", "y"]]], []],
                          [[["1", []], ["2", ["y"]]], [["1/2", ["x"]]]]]],
        }
        ladder = {"family": "ladder", "p": "1/2", "rho": "9/10", "n": 3}
        for cfg in (KOFN_CFG, dict(KOFN_CFG, family="lincon-f"), ladder, custom):
            assert build_from_config(cfg).pairs

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            build_from_config({"family": "bridge"})

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
}


@pytest.mark.parametrize("command, field", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exits_2_and_names_the_field(tmp_path, capsys, command, field):
    if isinstance(command, dict):
        command = ["solve", write_config(tmp_path, command)]
    assert main(command) == EXIT_PARSE
    assert field in capsys.readouterr().err


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


class TestVerifyCommand:
    def test_small_clean_run(self, capsys):
        code = main(["verify", "--trials", "12", "--max-components", "6", "--seed", "3"])
        assert code == EXIT_OK
        assert "all exact matches" in capsys.readouterr().out

    def test_corrupt_run_detected(self, capsys):
        code = main(
            ["verify", "--trials", "6", "--max-components", "6", "--corrupt"]
        )
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

    def test_no_ladder_below_four_components(self, monkeypatch):
        systems = []

        def recording_pass(system):
            systems.append(system)
            return single_pass(system)

        monkeypatch.setattr(relfreq.verify, "single_pass", recording_pass)
        assert run_equivalence_trials(trials=6, max_components=3).ok
        assert len(systems) == 6
        for system in systems:
            assert sum(0 < c.p < 1 for c in system.components) <= 3, system.family

    def test_one_enumeration_per_trial(self, monkeypatch):
        drawn, systems, calls = [], [], []

        def counting(make):
            def wrapped(*args):
                sf = make(*args)
                drawn.append(sf)

                def fn(state):
                    calls.append(None)
                    return sf.fn(state)

                return StructureFunction(sf.ids, fn, sf.name)

            return wrapped

        for name in ("kofn_g_structure", "lincon_f_structure", "ladder_structure"):
            monkeypatch.setattr(relfreq.verify, name, counting(getattr(relfreq.verify, name)))

        def recording_pass(system):
            systems.append(system)
            return single_pass(system)

        monkeypatch.setattr(relfreq.verify, "single_pass", recording_pass)
        assert run_equivalence_trials(trials=30, max_components=10, seed=3).ok
        assert len(drawn) == len(systems) == 30
        states = 0
        for sf, system in zip(drawn, systems):
            probs = {c.id: c.p for c in system.components}
            states += 2 ** sum(0 < probs[cid] < 1 for cid in sf.ids)
        assert len(calls) == states
