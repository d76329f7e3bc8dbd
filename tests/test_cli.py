import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import lcn
from lcn.cli import DEFAULT_GRAPH_FOR_CONDITION, main
from lcn.graph import MixedGraph
from lcn.markov import CONDITIONS
from lcn.oracle import DEFAULT_TOL

QUAD_MIXED = str(helpers.FIXTURES / "quad_mixed.lcn")
SMOKERS = str(helpers.FIXTURES / "smokers.lcn")
CYCLE6 = str(helpers.FIXTURES / "cycle6.lcn")
BIDIRECTED_BLOCK = str(helpers.FIXTURES / "bidirected_block.lcn")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_lcn(*argv, timeout=None):
    """`python -m lcn <argv>` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(lcn.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "lcn", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


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


LAYERS = ("lcn.build", "lcn.graph", "lcn.markov", "lcn.factorize", "lcn.oracle")


@pytest.mark.parametrize("argv, unloaded", [
    (None, LAYERS),
    (["parse", SMOKERS], LAYERS),
    (["check-dist", "table.json", "half.lcn"], tuple(m for m in LAYERS if m != "lcn.oracle")),
    (["graph", SMOKERS], ("lcn.markov", "lcn.oracle")),
], ids=["import", "parse", "check-dist", "graph"])
def test_import_leaves_networkx_unloaded(tmp_path, argv, unloaded):
    # A fresh interpreter runs `import lcn` or `python -m lcn <argv>` and
    # prints its sys.modules at exit, as the last line of stdout.
    write(tmp_path, "half.lcn", "U: 0.4 <= P(a) <= 0.6\n")
    write(tmp_path, "table.json", json.dumps({"props": ["a"], "probs": [0.5, 0.5]}))
    run = ("import lcn" if argv is None else
           "import runpy; runpy.run_module('lcn', run_name='__main__', alter_sys=True)")
    env = dict(os.environ, PYTHONPATH=str(Path(lcn.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import atexit, sys; atexit.register(lambda: print(*sorted(sys.modules))); {run}",
         *(argv or [])],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "lcn" in loaded
    assert sorted(loaded & {"networkx", *unloaded}) == []


# ---------------------------------------------------------------------------
# indep

def test_condition_choices_are_markov_conditions():
    # The CLI keeps its own copy so that building the parser loads no markov.
    assert tuple(DEFAULT_GRAPH_FOR_CONDITION) == CONDITIONS


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
    proc = run_lcn("indep", model, "--condition", "lmc-d")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1199
    assert "N1 _||_ N3 | N2" in lines


def structure_model(tmp_path, name, g):
    """A model whose mixed structure is `g`: a `D` constraint per directed
    edge and a `U` constraint per undirected one."""
    text = "".join(f"D: P({b.name} given {a.name}) = 0.5\n" for a, b in sorted(g.directed))
    text += "".join(f"U: P({a.name} & {b.name}) = 0.5\n" for a, b in sorted(g.undirected))
    return write(tmp_path, name, text)


def test_indep_on_a_dense_cyclic_structure_answers(tmp_path):
    # One 16-node step component full of directed cycles.  The search over
    # every simple path of it ran past 210 s unbounded and then stopped at
    # its frame budget; every node's descendants are the other fifteen, so
    # no node has a remainder.
    g = helpers.random_mixed_graph(random.Random(16), 16, 0.2, 0.1, 0.05)
    model = structure_model(tmp_path, "dense.lcn", g)
    for condition in ("lmc-c", "lmc-d"):
        proc = run_lcn("indep", model, "--condition", condition, timeout=15)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_indep_stops_at_the_path_budget(tmp_path):
    # An undirected 11-clique K0..K10 with K1 <-> Y, which lmc-d reads off
    # the mixed structure: K0 has no descendant but Y, yet Y leads back
    # into the clique, so the reach bound never prunes and the search walks
    # the 9.9 M undirected paths from K0.
    clique = [f"K{i}" for i in range(11)]
    g = MixedGraph.from_props(clique + ["Y"], [("K1", "Y"), ("Y", "K1")],
                              list(itertools.combinations(clique, 2)))
    model = structure_model(tmp_path, "clique.lcn", g)
    proc = run_lcn("indep", model, "--condition", "lmc-d", timeout=30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: the path search for the descendants of 'K0' in its 12-node cyclic "
        "step component exceeds the 1,000,000-frame budget"]


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


PRUNE_MODEL = (
    "U: 0.2 <= P(a | c) <= 0.8\n"
    "D: 1 <= P(b given a & c) <= 1\n"
    "U: 1 <= P(b | !d) <= 1\n"
    "D: 0.1 <= P(e given b) <= 0.9\n"
)


def test_factorize_prune_output_golden(tmp_path, capsys):
    model = write(tmp_path, "hard.lcn", PRUNE_MODEL)
    assert main(["factorize", model, "--prune"]) == 0
    assert capsys.readouterr().out == (
        "P(a,c) * P(b,d | a,c) * P(e | b)\n"
        "  factor 0: P(a,c)  cliques: {a,c}\n"
        "  factor 1: P(b,d | a,c)  cliques: {a,b,c} {b,d}\n"
        "  factor 2: P(e | b)  cliques: {b,e}\n"
        "  pruned 1 configuration(s) from {a,b,c} of factor 1\n"
        "  pruned 1 configuration(s) from {b,d} of factor 1\n"
    )
    assert main(["factorize", model, "--prune", "--format", "json"]) == 0
    factors = [(["a", "c"], [], [["a", "c"]], "P(a,c)"),
               (["b", "d"], ["a", "c"], [["a", "b", "c"], ["b", "d"]], "P(b,d | a,c)"),
               (["e"], ["b"], [["b", "e"]], "P(e | b)")]
    # Bit i of `alive` is the assignment giving clique[j] bit j of i.
    # (a & c) -> b drops a=1,b=0,c=1 (bit 5 of "df"); b | !d drops b=0,d=1
    # (bit 2 of "b").
    survivors = [(0, ["a", "c"], "f", 0),
                 (1, ["a", "b", "c"], "df", 1),
                 (1, ["b", "d"], "b", 1),
                 (2, ["b", "e"], "f", 0)]
    expected = {
        "positivity_assumed": True,
        "expression": "P(a,c) * P(b,d | a,c) * P(e | b)",
        "factors": [{"component": c, "boundary": b, "cliques": k, "expression": e}
                    for c, b, k, e in factors],
        "prune": {
            "layout": "alive is a hex mask: bit i is set iff the assignment "
                      "giving clique[j] bit j of i survives",
            "cliques": [{"factor": f, "clique": k, "alive": a, "removed": r}
                        for f, k, a, r in survivors],
            "errors": [],
        },
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


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


def test_factorize_prune_refuses_a_clique_over_the_cap(tmp_path):
    # Three overlapping constraints within the cap join A0..A23 into one
    # clique, whose survivor mask would be a truth table over 24 propositions.
    groups = (range(20), range(4, 24), [*range(4), *range(20, 24)])
    model = write(tmp_path, "clique24.lcn", "".join(
        "U: P(" + " & ".join(f"A{i}" for i in group) + ") = 0.5\n" for group in groups))
    for extra in ([], ["--format", "json"]):
        proc = run_lcn("factorize", model, "--prune", *extra, timeout=15)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: pruning a clique of 24 propositions exceeds "
                                      "the 20-proposition truth-table cap: {A0,A1,A10,")
        assert "Traceback" not in proc.stderr
    assert main(["factorize", model]) == 0  # the plan itself needs no cap


def test_factorize_prunes_a_clique_at_the_truth_table_cap(tmp_path):
    k = 20
    model = write(tmp_path, "clique20.lcn",
                  "U: P(" + " & ".join(f"A{i}" for i in range(k)) + ") = 0.5\n"
                  "U: 1 <= P(A0 | A1) <= 1\n")
    names = sorted(f"A{i}" for i in range(k))
    proc = run_lcn("factorize", model, "--prune", timeout=15)
    assert proc.returncode == 0, proc.stderr
    # A0 | A1 drops every assignment with A0 = A1 = 0.
    assert proc.stdout.splitlines()[-1] == (
        f"  pruned {2 ** (k - 2)} configuration(s) from {{{','.join(names)}}} of factor 0")
    proc = run_lcn("factorize", model, "--prune", "--format", "json", timeout=15)
    assert proc.returncode == 0, proc.stderr
    (clique,) = json.loads(proc.stdout)["prune"]["cliques"]
    assert clique["clique"] == names  # A0 is bit 0 and A1 bit 1 of each index
    # Of each four assignments, index 0 (A0 = A1 = 0) is gone: hex digit 0b1110.
    assert clique["alive"] == "e" * 2 ** (k - 2)
    assert clique["removed"] == 2 ** (k - 2)


@pytest.mark.parametrize("extra", [[], ["--prune"], ["--format", "json"]])
def test_factorize_rejects_formula_nodes(tmp_path, capsys, extra):
    model = write(tmp_path, "formulas.lcn", helpers.FORMULA_NODE_MODEL)
    assert main(["factorize", model, "--kind", "dependency", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: factorization is defined over variable nodes only"]


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


@pytest.mark.parametrize("probs, message", [
    ("[" + "1" * 400 + ", 0]", "error: malformed table JSON: int too large to convert to float"),
    ("[" + "1" * 5000 + ", 0]", "Exceeds the limit (4300 digits) for integer string conversion"),
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
], ids=["400-digits", "5000-digits", "deep-nesting"])
def test_check_dist_huge_json_numbers_without_traceback(tmp_path, probs, message):
    table = write(tmp_path, "t.json", '{"props": ["A"], "probs": ' + probs + "}")
    model = write(tmp_path, "m.lcn", "U: 0.5 <= P(A) <= 0.7\n")
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="4300",
               PYTHONPATH=str(Path(lcn.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "lcn", "check-dist", table, model],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "set_int_max_str_digits" not in proc.stderr


def test_check_dist_rejects_nan_probabilities(tmp_path, capsys):
    table = write(tmp_path, "t.json", '{"props": ["A"], "probs": [NaN, 1.0]}')
    model = write(tmp_path, "m.lcn", "U: 0.5 <= P(A) <= 0.7\n")
    assert main(["check-dist", table, model]) == 1
    assert "finite" in capsys.readouterr().err


def test_check_dist_default_tolerance_is_the_oracle_default(tmp_path):
    # P(A) lies above the upper bound by half of oracle.DEFAULT_TOL.
    table = write(tmp_path, "t.json", json.dumps(
        {"props": ["A"], "probs": [0.4 - DEFAULT_TOL / 2, 0.6 + DEFAULT_TOL / 2]}))
    model = write(tmp_path, "m.lcn", "U: 0.5 <= P(A) <= 0.6\n")
    assert main(["check-dist", table, model]) == 0
    assert main(["check-dist", table, model, "--tol", "0"]) == 1


@pytest.mark.parametrize("tol", ["nan", "-1e-9", "x", "inf", "1"])
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
                                    ["--tol", "nan"], ["--tol", "-1"],
                                    ["--tol", "inf"], ["--tol", "1"]])
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
# fuzz: near-miss input ends in exit 0 or 1, or a usage error

NEAR_MISS_LINES = (
    # the malformed lines of perfbench/gen.py
    "U: P(A given) = 0.3", "U: 1.5 <= P(A) <= 2", "X: P(A) = 0.1",
    "U: P(A $ B) = 0.2", "D: P(A & (B | C) = 0.4",
    # stray connectives, brackets and bounds
    "U: P(a &) = 0.2", "U: P(| a) = 0.2", "D: P(a given b &) = 0.5", "U: P(!) = 0.1",
    "U: P(a -> ) = 0.3", "U: P((a) = 0.3", "U: P(a)) = 0.3", "D: P(given a) = 0.5",
    "U: 0.7 <= P(a) <= 0.2", "U: P(a) = nan", "U: P(a) = 1e999", "U: P(a) in [0.2]",
    "U: P(a & !a) = 0.5", "D: P(a given a) = 0.5", "D: P(b given a | !a) = 0.5", "U:", "P(a) = 0.5",
    # well-formed lines
    "U: 0.1 <= P(a | b) <= 0.9", "D: P(b given a) = 0.2", "D: P(a given b) = 0.2", "# comment",
)
FIXTURE_TEXTS = tuple(path.read_text() for path in sorted(helpers.FIXTURES.glob("*.lcn")))
TABLE_TEXTS = (
    '{"props": "AB", "probs": [0.25, 0.25, 0.25, 0.25]}',
    '{"props": ["a", 1], "probs": [0.25, 0.25, 0.25, 0.25]}',
    '{"props": ["a"], "probs": [true, false]}',
    '{"props": ["a"], "probs": ["0.5", "x"]}',
    '{"props": ["a"], "probs": {"0": 1}}',
    '{"props": ["a", "a"], "probs": [0.25, 0.25, 0.25, 0.25]}',
    '{"props": ["a"], "probs": [0.5, 0.5]}', '{"props": ["a", "b"], "probs": [0.1, 0.2, 0.3, 0.4]}',
    '{"props": ["a"]}', '{"probs": [1]}',
    "[]", "null", "7", '"a"', "{not json", "",
)
CONDITION_OPTIONS = [["--condition", c] for c in ("lmc-lcn", "lmc-c", "lmc-cstr", "lmc-d")] + [
    # gmc-c under tight bounds, so that a 12-node model stays quick
    ["--condition", "gmc-c", "--max-x", "1", "--max-z", "0"],
]
NEAR_MISS_OPTIONS = {
    "parse": [[], ["--kind", "dot"]],
    "graph": [[], ["--kind", "mixed", "--format", "json"], ["--kind", "dependency", "--syntactic"],
              ["--kind", "bogus"], ["--format"]],
    "indep": CONDITION_OPTIONS + [
        ["--condition", "lmc-c", "--max-x", "-1"], ["--condition", "lmc-d", "--max-z", "x"],
        ["--condition", "lmc-lcn", "--graph", "structure"],
        ["--condition", "lmc-d", "--graph", "dependency", "--format", "json"],
        ["--condition", "gmc-c", "--max-x", "0"], ["--condition", "bogus"], []],
    "compare": [["--condition-a", "lmc-lcn", "--condition-b", "lmc-cstr"],
                ["--condition-a", "lmc-d", "--condition-b", "lmc-c", "--format", "json"],
                ["--condition-a", "lmc-c", "--condition-b", "gmc-c", "--max-x", "1",
                 "--max-z", "0"],
                ["--condition-a", "lmc-c"], ["--condition-a", "x", "--condition-b", "lmc-c"]],
    "factorize": [[], ["--prune"], ["--kind", "mixed", "--format", "json", "--prune"],
                  ["--kind", "dependency"]],
    "check-dist": [[], ["--strict"], ["--tol", "nan"], ["--tol", "-1"], ["--tol", "inf"],
                   ["--tol", "0"]],
    "verify": [["--samples", "1"], ["--samples", "2", "--seed", "-5", "--tol", "0"],
               ["--samples", "0"], ["--samples", "1", "--seed", "x"],
               ["--samples", "1", "--tol", "nan"]],
    "condense": [[], ["--kind", "dependency", "--format", "json"], ["--kind", "structure"],
                 ["--format", "yaml"]],
}

fixture_texts = st.sampled_from(FIXTURE_TEXTS)
model_texts = st.one_of(
    fixture_texts,
    # truncated mid-line, or after a whole line
    st.tuples(fixture_texts, st.integers(0, 10**4)).map(lambda t: t[0][:t[1] % (len(t[0]) + 1)]),
    st.tuples(fixture_texts, st.integers(0, 12)).map(
        lambda t: "".join(t[0].splitlines(keepends=True)[:t[1]])),
    st.tuples(fixture_texts, st.sampled_from(NEAR_MISS_LINES)).map("\n".join),
    st.lists(st.sampled_from(NEAR_MISS_LINES), max_size=5).map("\n".join),
)
table_texts = st.one_of(
    st.sampled_from(TABLE_TEXTS),
    st.fixed_dictionaries({
        "props": st.one_of(st.lists(st.sampled_from(["a", "b", "c", "A", 0, None]), max_size=3),
                           st.text(max_size=3), st.integers(), st.none()),
        "probs": st.one_of(st.lists(st.one_of(st.floats(), st.booleans(), st.integers(-1, 2),
                                              st.text(max_size=3), st.none()), max_size=8),
                           st.floats(), st.none()),
    }).map(json.dumps),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=5000)
@given(command=st.sampled_from(sorted(NEAR_MISS_OPTIONS)), data=st.data(),
       model=model_texts, other=model_texts, table=table_texts)
def test_cli_near_miss_inputs_exit_cleanly(fuzz_dir, command, data, model, other, table):
    (fuzz_dir / "m.lcn").write_text(model)
    (fuzz_dir / "o.lcn").write_text(other)
    (fuzz_dir / "t.json").write_text(table)
    inputs = {"compare": ["m.lcn", "o.lcn"], "check-dist": ["t.json", "m.lcn"]}
    argv = [command, *(str(fuzz_dir / name) for name in inputs.get(command, ["m.lcn"])),
            *data.draw(st.sampled_from(NEAR_MISS_OPTIONS[command]))]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 1), argv


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
