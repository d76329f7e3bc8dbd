import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
import lcn
from lcn.cli import main

QUAD_MIXED = str(helpers.FIXTURES / "quad_mixed.lcn")
SMOKERS = str(helpers.FIXTURES / "smokers.lcn")
CYCLE6 = str(helpers.FIXTURES / "cycle6.lcn")
BIDIRECTED_BLOCK = str(helpers.FIXTURES / "bidirected_block.lcn")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# parse

def test_parse_echoes_canonical_form(capsys):
    assert main(["parse", QUAD_MIXED]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "propositions (4): b, a, d, c"
    assert "D: 0.1 <= P(b given a) <= 0.2" in out


def test_parse_reports_info_diagnostics(tmp_path, capsys):
    model = write(tmp_path, "hard.lcn", "U: 1 <= P(a | b) <= 1\n")
    assert main(["parse", model]) == 0
    captured = capsys.readouterr()
    assert "hard constraint" in captured.err


def test_parse_fails_on_validation_error(tmp_path, capsys):
    model = write(tmp_path, "bad.lcn", "D: 0.1 <= P(a given b & !b) <= 0.2\n")
    assert main(["parse", model]) == 1
    assert "error" in capsys.readouterr().err


def test_parse_syntax_error_exit_code(tmp_path, capsys):
    model = write(tmp_path, "broken.lcn", "U: 0.1 <= P(a &) <= 0.2\n")
    assert main(["parse", model]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 1" in err


@pytest.mark.parametrize("formula, code", [
    (" & ".join(["A"] * 3000), 0),
    ("!" * 3000 + "A", 0),
    ("(" * 3000 + "A" + ")" * 3000, 1),
])
def test_parse_deep_formulas_without_traceback(tmp_path, capsys, formula, code):
    model = write(tmp_path, "deep.lcn", f"U: P({formula}) = 0.5\n")
    assert main(["parse", model]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code:
        assert captured.err.startswith("error: line 1, column 106: parentheses nested deeper")
    else:
        assert f"P({formula})" in captured.out


def test_missing_file_reported_as_error(capsys):
    assert main(["parse", "/nonexistent/model.lcn"]) == 1
    assert "error: cannot read" in capsys.readouterr().err


def test_non_utf8_model_reported_as_error(tmp_path, capsys):
    path = tmp_path / "latin1.lcn"
    path.write_bytes("U: 0.1 <= P(caf\u00e9) <= 0.9\n".encode("latin-1"))
    assert main(["parse", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# graph

def test_graph_dot_output(capsys):
    assert main(["graph", QUAD_MIXED, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph G {")
    assert "  a -> b;" in out
    assert "  b -> d [dir=none];" in out


def test_graph_json_output(capsys):
    assert main(["graph", QUAD_MIXED, "--kind", "mixed", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {n["id"] for n in data["nodes"]} == {"a", "b", "c", "d"}
    assert ["b", "d"] in data["directed"] and ["d", "b"] in data["directed"]
    assert data["undirected"] == []


def test_graph_syntactic_flag_splits_equivalent_formulas(tmp_path, capsys):
    model = write(
        tmp_path, "dup.lcn",
        "U: 0.1 <= P(a & b) <= 0.5\nU: 0.2 <= P(b & a) <= 0.6\n",
    )
    assert main(["graph", model, "--kind", "dependency", "--format", "json"]) == 0
    merged = json.loads(capsys.readouterr().out)
    assert main(["graph", model, "--kind", "dependency", "--format", "json",
                 "--syntactic"]) == 0
    split = json.loads(capsys.readouterr().out)
    assert len(merged["nodes"]) == 3  # a, b, one shared formula node
    assert len(split["nodes"]) == 4


def test_graph_of_wide_formula_under_the_default_int_str_limit(tmp_path):
    model = write(tmp_path, "wide.lcn",
                  "U: 0.1 <= P(" + " | ".join(f"X{i}" for i in range(14)) + ") <= 0.9\n")
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="4300",
               PYTHONPATH=str(Path(lcn.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "lcn", "graph", model, "--kind", "dependency"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "X0 | X1 |" in proc.stdout


def test_import_leaves_networkx_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(lcn.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, lcn; print('networkx' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# ---------------------------------------------------------------------------
# indep

def test_indep_text_statements_sorted(capsys):
    assert main(["indep", QUAD_MIXED, "--condition", "lmc-d"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "a _||_ c",
        "a _||_ d | b,c",
        "b _||_ c | a,d",
    ]


def test_indep_on_a_long_chain_without_traceback(tmp_path):
    model = write(tmp_path, "chain1200.lcn",
                  "".join(f"D: P(N{i + 1} given N{i}) = 0.5\n" for i in range(1, 1201)))
    env = dict(os.environ, PYTHONPATH=str(Path(lcn.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "lcn", "indep", model, "--condition", "lmc-d"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1199
    assert "N1 _||_ N3 | N2" in lines


def test_indep_json_reports_default_graph(capsys):
    assert main(["indep", QUAD_MIXED, "--condition", "lmc-d", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["condition"] == "lmc-d"
    assert data["graph"] == "mixed"
    assert data["statements"][0] == {"x": ["a"], "y": ["c"], "z": []}


def test_indep_condition_graph_defaults(capsys):
    # lmc-lcn reads the dependency graph; gmc-c reads the structure.
    assert main(["indep", QUAD_MIXED, "--condition", "lmc-lcn", "--format", "json"]) == 0
    lcn_data = json.loads(capsys.readouterr().out)
    assert lcn_data["graph"] == "dependency"
    assert len(lcn_data["statements"]) == 3

    assert main(["indep", QUAD_MIXED, "--condition", "gmc-c", "--format", "json"]) == 0
    gmc_data = json.loads(capsys.readouterr().out)
    assert gmc_data["graph"] == "structure"
    assert len(gmc_data["statements"]) == 3


def test_indep_gmc_smokers_output_is_pinned(capsys):
    # 3,960 statements; the digest is that of the per-triple enumerator
    # that built two graphs per query.
    assert main(["indep", SMOKERS, "--condition", "gmc-c"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 3960
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "57ace7e79ddcf5fb401c71f35b465af96d4c7a11d9a7a98a51bde97b6e6f6c6c"


def test_indep_empty_output_for_cycle(capsys):
    assert main(["indep", CYCLE6, "--condition", "lmc-lcn"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", [["indep", QUAD_MIXED, "--condition", "gmc-c"],
                                     ["compare", QUAD_MIXED, QUAD_MIXED,
                                      "--condition-a", "gmc-c", "--condition-b", "lmc-c"]])
@pytest.mark.parametrize("option", [["--max-x", "0"], ["--max-x", "-1"],
                                    ["--max-z", "-3"], ["--max-z", "x"]])
def test_vacuous_gmc_bounds_are_usage_errors(command, option):
    with pytest.raises(SystemExit) as exc:
        main(command + option)
    assert exc.value.code == 2


def test_indep_graph_override(capsys):
    assert main(["indep", QUAD_MIXED, "--condition", "gmc-c", "--graph", "mixed",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["graph"] == "mixed"
    got = {(tuple(s["x"]), tuple(s["y"]), tuple(s["z"])) for s in data["statements"]}
    assert got == {(("a",), ("c",), ()), (("a",), ("c",), ("b", "d"))}


# ---------------------------------------------------------------------------
# compare

def test_compare_text_output(capsys):
    rc = main([
        "compare", QUAD_MIXED, QUAD_MIXED,
        "--condition-a", "lmc-d", "--condition-b", "gmc-c",
        "--graph-b", "mixed",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "only in a (2):" in out
    assert "only in b (1):" in out
    assert "shared (1):" in out
    assert "  a _||_ c | b,d" in out


def test_compare_json_output(capsys):
    rc = main([
        "compare", QUAD_MIXED, QUAD_MIXED,
        "--condition-a", "lmc-c", "--condition-b", "lmc-cstr",
        "--format", "json",
    ])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["a"]["condition"] == "lmc-c"
    assert data["a"]["graph"] == "structure"
    assert data["only_in_a"] == [] and data["only_in_b"] == []
    assert len(data["shared"]) == 3


# ---------------------------------------------------------------------------
# factorize

def test_factorize_text_output(capsys):
    assert main(["factorize", SMOKERS]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "P(F1,F2,F3) * P(S1,S2,S3 | F1,F2,F3) * "
        "P(C1 | S1) * P(C2 | S2) * P(C3 | S3)"
    )
    assert lines[1] == "  factor 0: P(F1,F2,F3)  cliques: {F1,F2,F3}"


def test_factorize_json_output(capsys):
    assert main(["factorize", SMOKERS, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["factors"]) == 5
    assert data["factors"][2]["expression"] == "P(C1 | S1)"
    assert data["factors"][2]["cliques"] == [["C1", "S1"]]
    assert data["positivity_assumed"] is True


def test_factorize_prune_text(tmp_path, capsys):
    model = write(tmp_path, "hard.lcn", "U: 1 <= P(A | B) <= 1\n")
    assert main(["factorize", model, "--prune"]) == 0
    out = capsys.readouterr().out
    assert "pruned 1 configuration(s) from {A,B} of factor 0" in out


def test_factorize_prune_error_exit(tmp_path, capsys):
    model = write(
        tmp_path, "unfit.lcn",
        "U: 0.1 <= P(x | y) <= 0.9\n"
        "U: 0.1 <= P(y | z) <= 0.9\n"
        "D: 1 <= P(x | z) <= 1\n",
    )
    assert main(["factorize", model, "--prune"]) == 1
    assert "do not fit" in capsys.readouterr().err

    assert main(["factorize", model, "--prune", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert len(data["prune"]["errors"]) == 1


def test_factorize_rejects_cyclic_structure(capsys):
    assert main(["factorize", CYCLE6]) == 1
    assert "directed cycle" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check-dist

def test_check_dist_pass_and_fail(tmp_path, capsys):
    table = write(tmp_path, "t.json", json.dumps(
        {"props": ["A", "B"], "probs": [0.1, 0.2, 0.3, 0.4]}))
    good = write(tmp_path, "good.lcn", "U: 0.5 <= P(A) <= 0.7\n")
    bad = write(tmp_path, "bad.lcn", "U: 0.8 <= P(A) <= 0.9\n")

    assert main(["check-dist", table, good]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "ok"
    assert "satisfied" in out and "value=0.600000" in out

    assert main(["check-dist", table, bad]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "FAIL"
    assert "violated" in out and "margin=0.200000" in out


@pytest.mark.parametrize("data", [
    {"props": "AB", "probs": [0.1, 0.2, 0.3, 0.4]},
    {"props": ["A", 1], "probs": [0.1, 0.2, 0.3, 0.4]},
    {"props": ["A"], "probs": [True, False]},
])
def test_check_dist_rejects_malformed_table(tmp_path, capsys, data):
    table = write(tmp_path, "t.json", json.dumps(data))
    model = write(tmp_path, "m.lcn", "U: 0.5 <= P(A) <= 0.7\n")
    assert main(["check-dist", table, model]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed table JSON: ")


def test_check_dist_strict_flag(tmp_path, capsys):
    table = write(tmp_path, "t.json", json.dumps(
        {"props": ["A", "B"], "probs": [0.5, 0.5, 0.0, 0.0]}))
    model = write(tmp_path, "m.lcn", "D: 0.2 <= P(A given B) <= 0.3\n")
    assert main(["check-dist", table, model]) == 0
    assert "vacuous" in capsys.readouterr().out
    assert main(["check-dist", table, model, "--strict"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL"


def test_check_dist_color_toggle(tmp_path, capsys, monkeypatch):
    table = write(tmp_path, "t.json", json.dumps(
        {"props": ["A", "B"], "probs": [0.1, 0.2, 0.3, 0.4]}))
    model = write(tmp_path, "m.lcn", "U: 0.5 <= P(A) <= 0.7\n")
    monkeypatch.setenv("LCN_COLOR", "1")
    main(["check-dist", table, model])
    assert "\x1b[32m" in capsys.readouterr().out
    monkeypatch.setenv("LCN_COLOR", "0")
    main(["check-dist", table, model])
    assert "\x1b[" not in capsys.readouterr().out


def test_check_dist_bad_table_file(tmp_path, capsys):
    model = write(tmp_path, "m.lcn", "U: 0.5 <= P(A) <= 0.7\n")
    garbage = write(tmp_path, "t.json", "{not json")
    assert main(["check-dist", garbage, model]) == 1
    assert capsys.readouterr().err.startswith("error:")
    short = write(tmp_path, "short.json", json.dumps(
        {"props": ["A"], "probs": [1.0]}))
    assert main(["check-dist", short, model]) == 1
    assert "error:" in capsys.readouterr().err


def test_check_dist_rejects_nan_probabilities(tmp_path, capsys):
    table = write(tmp_path, "t.json", '{"props": ["A"], "probs": [NaN, 1.0]}')
    model = write(tmp_path, "m.lcn", "U: 0.5 <= P(A) <= 0.7\n")
    assert main(["check-dist", table, model]) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "-1e-9", "x"])
def test_check_dist_bad_tolerance_is_usage_error(tmp_path, tol):
    table = write(tmp_path, "t.json", json.dumps({"props": ["A"], "probs": [0.4, 0.6]}))
    model = write(tmp_path, "m.lcn", "U: 0.5 <= P(A) <= 0.7\n")
    with pytest.raises(SystemExit) as exc:
        main(["check-dist", table, model, "--tol", tol])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify

def test_verify_passes_on_chain_model(capsys):
    assert main(["verify", QUAD_MIXED, "--samples", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "3 sample(s), 3 statement(s) each" in out
    assert out.splitlines()[-1] == "ok"


@pytest.mark.parametrize("option", [["--samples", "0"], ["--samples", "-3"],
                                    ["--tol", "nan"], ["--tol", "-1"]])
def test_verify_vacuous_or_nan_options_are_usage_errors(option):
    with pytest.raises(SystemExit) as exc:
        main(["verify", QUAD_MIXED] + option)
    assert exc.value.code == 2


def test_verify_rejects_cyclic_structure(capsys):
    assert main(["verify", CYCLE6]) == 1
    assert "directed cycle" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# condense

def test_condense_json_output(capsys):
    assert main(["condense", BIDIRECTED_BLOCK, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["super_nodes"] == {"{b,c,d}": ["b", "c", "d"]}
    assert data["mapping"] == {"b": "{b,c,d}", "c": "{b,c,d}", "d": "{b,c,d}"}
    super_ids = [n["id"] for n in data["nodes"] if n["kind"] == "super"]
    assert super_ids == ["s0"]
    assert sorted(map(tuple, data["directed"])) == [("a", "s0"), ("e", "s0")]


def test_condense_dot_output(capsys):
    assert main(["condense", BIDIRECTED_BLOCK]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph G {")
    assert '"{b,c,d}"' in out


def test_condense_identity_mapping_is_empty(capsys):
    assert main(["condense", QUAD_MIXED, "--kind", "structure", "--format",
                 "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["super_nodes"] == {} and data["mapping"] == {}


# ---------------------------------------------------------------------------
# usage errors and packaging

def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_option_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["indep", QUAD_MIXED])
    assert exc.value.code == 2


def test_console_script_installed():
    path = shutil.which("lcn")
    assert path, "console script 'lcn' not on PATH"
    proc = subprocess.run([path, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "factorize" in proc.stdout
